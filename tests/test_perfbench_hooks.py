"""The benchmark's traced mode wraps program functions by module attribute
(perfbench/bench_trace.py). Every name it patches must exist, and unpatching
must restore the original objects."""

import os
import sys
import types

import tiltrl.cli
import tiltrl.config
import tiltrl.dynamics
import tiltrl.env
import tiltrl.evalsuite
import tiltrl.neuralnet
import tiltrl.ppo
import tiltrl.transfer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import bench_trace  # noqa: E402


def test_instrument_patches_existing_names_and_unpatch_restores():
    # The modules already imported, so no other test sees swapped modules.
    prog = types.SimpleNamespace(
        cli=tiltrl.cli, config=tiltrl.config, dynamics=tiltrl.dynamics,
        env=tiltrl.env, evalsuite=tiltrl.evalsuite, neuralnet=tiltrl.neuralnet,
        ppo=tiltrl.ppo, transfer=tiltrl.transfer)
    owners = [*vars(prog).values(), tiltrl.env.HoverEnv]
    before = [dict(vars(owner)) for owner in owners]

    tracer = bench_trace.Tracer()
    try:
        bench_trace.instrument(tracer, prog)   # AttributeError if a name is gone
        assert tiltrl.env.step_flat is not before[owners.index(tiltrl.env)]["step_flat"]
    finally:
        tracer.unpatch()

    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        for name, obj in attrs.items():
            assert now[name] is obj, f"{owner.__name__}.{name} not restored"
