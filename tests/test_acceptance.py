"""End-to-end acceptance suite: one test per headline claim, each emitting a
single "[ACCEPTANCE] name: PASS/FAIL" line on stdout.

The training-dependent criteria share desk-scale artifacts (3 seeds x 5e5
steps for the quadcopter stage plus developmental and scratch tilt-rotor
stages). Those runs take minutes each, so artifacts are cached under
TILTRL_ACCEPTANCE_CACHE (default: /tmp/tiltrl_acceptance). A stage is current
when its manifest.json equals, with "completed": true, the one its command
line would write now (`cli.stage_manifest`: sources, versions, resolved config
with TILTRL_* overrides, the transfer source's bytes); any other run directory
is deleted and retrained. Stale stages train in child processes, up to one per
seed at a time. Delete the cache directory to force a full retrain.
"""

import dataclasses
import glob
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import types
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np
import pytest

import tiltrl
import tiltrl.neuralnet as nn
from tiltrl import cli, ppo
from tiltrl.config import default_config, write_config
from tiltrl.dynamics import (SimParams, derivative, hover_state, quat_to_rot,
                             step_flat)
from tiltrl.env import (EpisodeConfig, HoverEnv, Platform,
                        RewardWeights, TermStatus)
from tiltrl.evalsuite import (SQUARE_MISSION, actor_platform, run_fault_ablation,
                              run_hover_eval, run_waypoint_mission)

pytestmark = pytest.mark.acceptance

CACHE = os.path.abspath(os.environ.get("TILTRL_ACCEPTANCE_CACHE",
                                       "/tmp/tiltrl_acceptance"))
SRC_DIR = os.path.dirname(os.path.abspath(tiltrl.__file__))
CONFIG_NAME = "snapshots.cfg"
SEEDS = (1, 2, 3)
DESK_STEPS = 500_000
SNAP_EVERY = 2            # checkpoint every 2 updates -> ~15 curve points
EVAL_EPISODES = 6
EVAL_SEED = 4242          # episode ep draws its start from SeedSequence([EVAL_SEED, ep])
PARAMS = SimParams()


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- shared desk-scale artifacts ---------------------------------------------

def _cli(argv) -> int:
    """Run `tiltrl argv` in a child process, so commands run side by side."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(SRC_DIR), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "tiltrl.cli", *argv],
                          env=env).returncode


def _write_snapshot_config() -> None:
    """Every stage trains from the default config with checkpoint_every =
    SNAP_EVERY, written into the cache."""
    os.makedirs(CACHE, exist_ok=True)
    cfg = default_config()
    write_config(dataclasses.replace(cfg, train=dataclasses.replace(
        cfg.train, checkpoint_every=SNAP_EVERY)), os.path.join(CACHE, CONFIG_NAME))


def _is_current(argv) -> bool:
    """Whether argv's --out directory holds a completed run of the inputs
    argv resolves to now."""
    args = cli.build_parser().parse_args(argv)
    try:
        with open(os.path.join(args.out, "manifest.json")) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        return False
    return stored == {**cli.stage_manifest(args), "completed": True}


def _ensure_stage(argv) -> None:
    """Train argv unless it is current (see _is_current). A stale directory,
    its cached eval curve included, is removed first."""
    if not _is_current(argv):
        shutil.rmtree(argv[argv.index("--out") + 1], ignore_errors=True)
        assert _cli(argv) == 0, f"training command failed: {argv}"


def _run_dir(kind: str, seed: int) -> str:
    return os.path.join(CACHE, f"{kind}_s{seed}")


def _final(kind: str, seed: int) -> str:
    return os.path.join(_run_dir(kind, seed), "checkpoint_final.bin")


def _stage(kind: str, seed: int) -> list[str]:
    """The stage's CLI argv; every path in it is absolute."""
    common = ["--config", os.path.join(CACHE, CONFIG_NAME), "--seed", str(seed),
              "--steps", str(DESK_STEPS), "--out", _run_dir(kind, seed)]
    if kind == "quad":
        return ["train-quad", *common]
    if kind == "dev":
        return ["train-tilt", "--from", _final("quad", seed), *common]
    return ["train-tilt", "--scratch", *common]


def _ensure_trained() -> None:
    """Bring every stage up to date, training stale stages side by side, one
    per seed at a time. A developmental stage starts once its quad stage is
    current. Each stage's eval curve is scored as soon as the stage is
    current, while the others train."""
    _write_snapshot_config()
    pool = ThreadPoolExecutor(max_workers=len(SEEDS))
    stages = {}

    def submit(kind, seed):
        job = pool.submit(_ensure_stage, _stage(kind, seed))
        stages[job] = (kind, seed)
        return job

    try:
        pending = {submit(kind, seed) for seed in SEEDS for kind in ("quad", "conv")}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for job in done:
                job.result()
                kind, seed = stages[job]
                if kind == "quad":
                    pending.add(submit("dev", seed))
                _eval_curve(kind, seed)
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="session")
def artifacts():
    _ensure_trained()
    return CACHE


def _actor(path: str) -> nn.Mlp:
    nets, _, _ = nn.load_checkpoint(path)
    return nets["actor"][0]


def _snapshots(kind: str, seed: int) -> list[tuple[int, str]]:
    """(env_steps, path) for the periodic checkpoints, ordered by step."""
    out = []
    for path in sorted(glob.glob(os.path.join(_run_dir(kind, seed),
                                              "checkpoint_0*.bin"))):
        _, _, step_count = nn.load_checkpoint(path)
        out.append((step_count, path))
    return out


def deterministic_eval_reward(actor: nn.Mlp) -> float:
    """Mean episode reward of the mean (noise-free) policy on its platform
    under the shrunk initialization (no SO(3) warm-up); episode seeds fixed
    so all policies see the same draws."""
    platform, totals = actor_platform(actor), []
    for ep in range(EVAL_EPISODES):
        env = HoverEnv(platform, PARAMS, EpisodeConfig(so3_warmup_episodes=0),
                       RewardWeights(),
                       np.random.default_rng(np.random.SeedSequence([EVAL_SEED, ep])))
        obs = env.reset(0)
        total = 0.0
        while True:
            obs, r, status = env.step(nn.forward(actor, obs))
            total += r
            if status is not TermStatus.RUNNING:
                break
        totals.append(total)
    return float(np.mean(totals))


def _eval_curve(kind: str, seed: int) -> list[tuple[int, float]]:
    """Deterministic-eval reward at every logged checkpoint, cached as JSON
    with the constants and the source of the scoring function it was scored
    under; the stage's manifest covers the rest of its inputs. A cache
    scored otherwise is rescored."""
    cache_path = os.path.join(_run_dir(kind, seed), "eval_curve.json")
    code = inspect.getsource(deterministic_eval_reward).encode()
    scoring = {"episodes": EVAL_EPISODES, "seed": EVAL_SEED,
               "code_sha256": hashlib.sha256(code).hexdigest()}
    if os.path.exists(cache_path):
        with open(cache_path) as fh:
            cached = json.load(fh)
        if isinstance(cached, dict) and cached["scoring"] == scoring:
            return [tuple(row) for row in cached["curve"]]
    curve = [(step_count, deterministic_eval_reward(_actor(path)))
             for step_count, path in _snapshots(kind, seed)]
    with nn.atomic_open(cache_path) as fh:
        json.dump({"scoring": scoring, "curve": curve}, fh)
    return curve


# --- 0. artifact cache -------------------------------------------------------

class TestArtifactCache:
    def test_key_tracks_sources_and_stale_runs_retrain(self, tmp_path, monkeypatch):
        # The manifest hashes the package the cli module was loaded from:
        # point it at a copy that the test can edit.
        src = tmp_path / "src"
        shutil.copytree(SRC_DIR, src, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(cli, "__file__", str(src / "cli.py"))
        monkeypatch.setitem(globals(), "CACHE", str(tmp_path / "cache"))
        trained = []

        def fake_cli(argv):
            # What a finished training leaves that the cache reads.
            args = cli.build_parser().parse_args(argv)
            os.makedirs(args.out)
            with open(os.path.join(args.out, "checkpoint_final.bin"), "w") as fh:
                fh.write(str(len(trained)))
            cli.write_manifest(args.out, {**cli.stage_manifest(args), "completed": True})
            trained.append(argv)
            return 0

        monkeypatch.setitem(globals(), "_cli", fake_cli)
        _write_snapshot_config()

        run_dir, argv = _run_dir("quad", 1), _stage("quad", 1)
        os.makedirs(run_dir)
        for name, text in (("checkpoint_final.bin", "old"), ("eval_curve.json", "[]"),
                           ("manifest.json", '{"stale": true}')):
            with open(os.path.join(run_dir, name), "w") as fh:
                fh.write(text)
        _ensure_stage(argv)                 # stale: removed and retrained
        assert trained == [argv]
        assert not os.path.exists(os.path.join(run_dir, "eval_curve.json"))
        _ensure_stage(list(argv))           # equal inputs: reused as is
        assert len(trained) == 1
        assert not _is_current([*_stage("quad", 2)[:-1], run_dir])   # other seed

        source = src / "ppo.py"
        data = source.read_bytes()
        source.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        assert not _is_current(argv)
        source.write_bytes(data)
        assert _is_current(argv)

        # The developmental stage is current only against the quad
        # checkpoint it started from, wherever the cache lies.
        _ensure_stage(_stage("dev", 1))
        assert len(trained) == 2 and _is_current(_stage("dev", 1))
        shutil.copytree(CACHE, tmp_path / "moved")
        monkeypatch.setitem(globals(), "CACHE", str(tmp_path / "moved"))
        assert _is_current(_stage("quad", 1)) and _is_current(_stage("dev", 1))
        with open(_final("quad", 1), "a") as fh:
            fh.write("retrained")
        assert not _is_current(_stage("dev", 1))

        argv = _stage("quad", 1)
        cli.write_manifest(_run_dir("quad", 1),
                           cli.stage_manifest(cli.build_parser().parse_args(argv)))
        _ensure_stage(argv)                 # not completed: retrained
        assert len(trained) == 3
        os.remove(os.path.join(_run_dir("quad", 1), "manifest.json"))
        _ensure_stage(argv)                 # no manifest: retrained
        assert len(trained) == 4

    @pytest.fixture
    def scored(self, tmp_path, monkeypatch):
        """Curves of two fake snapshots into a fresh cache; set scored.reward to
        the reward the next scoring gives."""
        monkeypatch.setitem(globals(), "CACHE", str(tmp_path))
        os.makedirs(_run_dir("quad", 1))
        monkeypatch.setitem(globals(), "_snapshots",
                            lambda kind, seed: [(4096, "a.bin"), (8192, "b.bin")])
        monkeypatch.setitem(globals(), "_actor", lambda path: path)
        scored = types.SimpleNamespace(reward=1.0)
        monkeypatch.setitem(globals(), "deterministic_eval_reward",
                            lambda actor: scored.reward)
        assert _eval_curve("quad", 1) == [(4096, 1.0), (8192, 1.0)]
        scored.reward = 2.0
        return scored

    def test_curve_under_current_constants_reused(self, scored):
        assert _eval_curve("quad", 1) == [(4096, 1.0), (8192, 1.0)]

    @pytest.mark.parametrize("constant, value", [("EVAL_EPISODES", 5), ("EVAL_SEED", 1)])
    def test_curve_under_other_constants_rescored(self, scored, monkeypatch,
                                                  constant, value):
        monkeypatch.setitem(globals(), constant, value)
        assert _eval_curve("quad", 1) == [(4096, 2.0), (8192, 2.0)]
        scored.reward = 3.0
        assert _eval_curve("quad", 1) == [(4096, 2.0), (8192, 2.0)]   # and cached anew

    def test_curve_of_other_scoring_code_rescored(self, scored, monkeypatch):
        monkeypatch.setitem(globals(), "deterministic_eval_reward",
                            lambda actor: -scored.reward)
        assert _eval_curve("quad", 1) == [(4096, -2.0), (8192, -2.0)]
        scored.reward = 3.0
        assert _eval_curve("quad", 1) == [(4096, -2.0), (8192, -2.0)]

    def test_key_tracks_config_overrides(self, tmp_path, monkeypatch):
        # The training child inherits the environment, so a TILTRL_* config
        # override changes what a stage trains and must change its manifest.
        for var in [v for v in os.environ if v.startswith("TILTRL_")]:
            monkeypatch.delenv(var)
        monkeypatch.setitem(globals(), "CACHE", str(tmp_path))
        _write_snapshot_config()
        args = cli.build_parser().parse_args(_stage("quad", 1))
        base = cli.stage_manifest(args)
        for var, value in (("TILTRL_ACCEPTANCE_CACHE", "/elsewhere"),  # locates the cache
                           ("TILTRL_TOTAL_STEPS", "7"),     # --steps overrides it
                           ("TILTRL_FOO", "x")):            # not a config key
            monkeypatch.setenv(var, value)
            assert cli.stage_manifest(args) == base, var
        monkeypatch.setenv("TILTRL_SIGMA", "0.5")
        sigma = cli.stage_manifest(args)
        assert sigma != base
        monkeypatch.setenv("TILTRL_SIGMA", "0.3")
        assert cli.stage_manifest(args) not in (base, sigma)
        monkeypatch.delenv("TILTRL_SIGMA")
        monkeypatch.setenv("TILTRL_CHECKPOINT_EVERY", "3")
        assert cli.stage_manifest(args)["config"]["checkpoint_every"] == 3


# --- 1. dynamics property suite ----------------------------------------------

class TestDynamicsProperties:
    def test_dynamics_property_suite(self):
        # Flat state: position, velocity, quaternion, body rates, tilt
        # angles, thrusts (dynamics module docstring).
        # Hover equilibrium: exact fixed point.
        s = hover_state(PARAMS, (0.0, 0.0, 3.0))
        s2 = step_flat(s, np.full(4, PARAMS.hover_thrust_n), np.zeros(4), PARAMS)
        hover_ok = bool(np.abs(s2 - s).max() < 1e-12)

        # Energy/momentum conservation, 10 s torque-free.
        p0 = SimParams(gravity_mps2=0.0)
        rng = np.random.default_rng(11)
        s = hover_state(p0)
        s[17:21] = 0.0
        s[3:6] = rng.uniform(-1, 1, 3)
        s[10:13] = rng.uniform(-2, 2, 3)
        inertia = np.diag(p0.inertia_diag)
        v0 = s[3:6].copy()
        ke0 = 0.5 * s[10:13] @ inertia @ s[10:13]
        for _ in range(1000):
            s = step_flat(s, np.zeros(4), np.zeros(4), p0)
        ke = 0.5 * s[10:13] @ inertia @ s[10:13]
        cons_ok = (np.abs(s[3:6] - v0).max() < 1e-6
                   and abs(ke - ke0) / ke0 < 1e-6)

        # Quadcopter-reduction oracle at zero tilt. The body wrench is read
        # off the derivative at zero body rates: force = m R^T (a + g e_z),
        # torque = I omega_dot.
        l, k = PARAMS.arm_length_m, PARAMS.moment_ratio_m
        inertia_diag = np.array(PARAMS.inertia_diag)
        worst = 0.0
        for _ in range(1000):
            st = hover_state(PARAMS)
            st[17:21] = rng.uniform(0, 15, 4)
            st[6:10] = rng.standard_normal(4)
            st[6:10] /= np.linalg.norm(st[6:10])
            f1, f2, f3, f4 = st[17:21]
            force_o = np.array([0.0, 0.0, f1 + f2 + f3 + f4])
            torque_o = np.array([l * (f2 - f4), l * (f3 - f1),
                                 k * (-f1 + f2 + f3 - f4)])
            d = np.array(derivative(st, st[17:21], np.zeros(4), PARAMS))
            r = quat_to_rot(st[6:10])
            force = PARAMS.mass_kg * r.T @ (d[3:6] + [0.0, 0.0, PARAMS.gravity_mps2])
            torque = inertia_diag * d[10:13]
            worst = max(worst, np.abs(force - force_o).max(),
                        np.abs(torque - torque_o).max())
        reduction_ok = worst < 1e-12

        # RK4 order: halving dt cuts one-step error >= 8x.
        order_ok = True
        for _ in range(5):
            st = hover_state(PARAMS)
            st[3:6] = rng.uniform(-1, 1, 3)
            st[10:13] = rng.uniform(-1, 1, 3)
            st[13:17] = rng.uniform(-0.5, 0.5, 4)
            thrust = rng.uniform(2, 10, 4)
            rates = rng.uniform(-1, 1, 4)

            def advance(dt, n, y0=st):
                pp = SimParams(dt_s=dt)
                x = y0
                for _ in range(n):
                    x = step_flat(x, thrust, rates, pp)
                return x

            ref = advance(0.01 / 100, 100)
            e_full = np.abs(advance(0.01, 1) - ref).max()
            e_half = np.abs(advance(0.005, 2) - ref).max()
            order_ok = order_ok and (e_full / e_half >= 8.0)

        ok = hover_ok and cons_ok and reduction_ok and order_ok
        report("dynamics property suite", ok,
               f"hover={hover_ok} conservation={cons_ok} "
               f"reduction(worst={worst:.2e})={reduction_ok} rk4={order_ok}")


# --- 2. gradient correctness -------------------------------------------------

class TestGradientCorrectness:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        h = 1e-5
        for trial in range(100):
            sizes = [int(rng.integers(2, 5)) for _ in range(3)]
            net = nn.make_mlp(sizes, rng, output_tanh=bool(trial % 2))
            x = rng.standard_normal(sizes[0])
            up = rng.standard_normal(sizes[-1])
            gw, gb = net.views(nn.gradients(net, x, up))
            for li in range(len(net.weights)):
                for arr, grad in ((net.weights[li], gw[li]),
                                  (net.biases[li], gb[li])):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + h
                        fp = float(np.sum(nn.forward(net, x) * up))
                        arr[idx] = orig - h
                        fm = float(np.sum(nn.forward(net, x) * up))
                        arr[idx] = orig
                        fd = (fp - fm) / (2 * h)
                        denom = max(abs(fd), abs(grad[idx]), 1e-8)
                        worst = max(worst, abs(fd - grad[idx]) / denom)
        ok = worst < 1e-5
        report("gradient correctness (100 nets, central differences)", ok,
               f"max relative error {worst:.2e}")


# --- 3. GAE oracle -----------------------------------------------------------

class TestGaeOracle:
    def test_recursive_matches_brute_force(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            t = int(rng.integers(1, 12))
            rewards = rng.standard_normal(t)
            values = rng.standard_normal(t)
            dones = (rng.random(t) < 0.25).astype(float)
            bootstrap = rng.standard_normal(1)
            gamma = float(rng.uniform(0.8, 0.999))
            lam = float(rng.uniform(0.8, 1.0))
            buf = ppo.RolloutBuffer(
                obs=np.zeros((t, 1)), actions=np.zeros((t, 1)),
                log_probs=np.zeros(t), rewards=rewards, values=values,
                dones=dones, bootstrap=bootstrap, n_envs=1,
                truncation_values=np.zeros(t))
            adv, _ = ppo.compute_gae(buf, gamma, lam)
            # O(T^2) independent recomputation.
            vals_next = np.append(values[1:], bootstrap[0])
            deltas = rewards + gamma * vals_next * (1.0 - dones) - values
            oracle = np.zeros(t)
            for i in range(t):
                acc, w = 0.0, 1.0
                for j in range(i, t):
                    acc += w * deltas[j]
                    if dones[j]:
                        break
                    w *= gamma * lam
                oracle[i] = acc
            worst = max(worst, np.abs(adv - oracle).max())
        ok = worst < 1e-10
        report("GAE oracle equivalence (1000 sequences)", ok,
               f"max abs diff {worst:.2e}")


# --- 4. headline-constant unit reproductions ---------------------------------

class TestUnitReproductions:
    def test_headline_constants(self):
        fh_ok = PARAMS.hover_thrust_n == 1.5 * 9.81 / 4 == 3.67875
        env = HoverEnv(Platform.QUAD, PARAMS, EpisodeConfig(), RewardWeights(),
                       np.random.default_rng(0))
        env.reset(1_000)
        env.y = hover_state(PARAMS, EpisodeConfig().target_position_m)
        # Zero action holds the exact hover fixed point at the goal, so the
        # post-step reward must be exactly beta.
        _, rew, _ = env.step(np.zeros(4))
        reward_ok = rew == RewardWeights().beta == 5.0
        dims_ok = (Platform.QUAD.obs_dim == 18 and Platform.QUAD.act_dim == 4
                   and Platform.TILT_ROTOR.obs_dim == 22
                   and Platform.TILT_ROTOR.act_dim == 8)
        ok = fh_ok and reward_ok and dims_ok
        report("unit reproductions (F_h, reward-at-goal, obs dims)", ok,
               f"F_h={PARAMS.hover_thrust_n} reward_at_goal={rew} dims_ok={dims_ok}")


# --- 5. desk-scale quadcopter training ---------------------------------------

class TestDeskScaleTraining:
    def test_quad_learning_and_hover_success(self, artifacts):
        # Reward curve: mean across seeds, thirds must be monotone.
        curves = [_eval_curve("quad", s) for s in SEEDS]
        n = min(len(c) for c in curves)
        mean_curve = np.mean([[r for _, r in c[:n]] for c in curves], axis=0)
        third = n // 3
        thirds = [float(np.mean(mean_curve[i * third:(i + 1) * third]))
                  for i in range(3)]
        mono_ok = thirds[0] < thirds[1] < thirds[2]

        # Final hover success across seeds, 0.2 m tolerance, shrunk init.
        succ = total = 0
        for s in SEEDS:
            results = run_hover_eval(_actor(_final("quad", s)), PARAMS, 34,
                                     seed=1000 + s)
            succ += sum(r.success for r in results)
            total += len(results)
        rate = succ / total
        ok = mono_ok and rate >= 0.70
        report("desk-scale quad training (monotone thirds, hover >= 70%)", ok,
               f"thirds={np.round(thirds, 1).tolist()} success={succ}/{total}"
               f" ({100 * rate:.0f}%)")


# --- 6. developmental advantage ----------------------------------------------

class TestDevelopmentalAdvantage:
    def test_dev_beats_conventional(self, artifacts):
        dev = [_eval_curve("dev", s) for s in SEEDS]
        conv = [_eval_curve("conv", s) for s in SEEDS]
        n = min(min(len(c) for c in dev), min(len(c) for c in conv))
        dev_mean = np.mean([[r for _, r in c[:n]] for c in dev], axis=0)
        conv_mean = np.mean([[r for _, r in c[:n]] for c in conv], axis=0)
        dominance = float(np.mean(dev_mean > conv_mean))
        final_ok = dev_mean[-1] > conv_mean[-1]
        ok = final_ok and dominance >= 0.70
        report("developmental advantage (final reward + curve dominance)", ok,
               f"final dev={dev_mean[-1]:.1f} conv={conv_mean[-1]:.1f} "
               f"dominance={100 * dominance:.0f}% of {n} checkpoints")


# --- 7. fault-tolerance ordering ---------------------------------------------

class TestFaultTolerance:
    def test_ablation_ordering(self, artifacts):
        counts = [run_fault_ablation(_actor(_final(kind, SEEDS[0])), n_faulty, 100, PARAMS,
                                     seed=77)[0]
                  for kind in ("dev", "conv") for n_faulty in (1, 2, 3, 4)]
        dev_counts, conv_counts = counts[:4], counts[4:]
        order_ok = all(dev_counts[i] >= conv_counts[i] for i in range(3))
        mono_ok = all(xs[i + 1] <= xs[i] + 5 for xs in (dev_counts, conv_counts)
                      for i in range(3))
        ok = order_ok and mono_ok
        report("fault-tolerance ordering (paired 100-trial cells)", ok,
               f"dev={dev_counts} conv={conv_counts} "
               f"(reference cells: 92/82/49/24 vs 80/66/31/19)")


# --- 8. transfer invariants --------------------------------------------------

def _transfer_invariants(quad: nn.Mlp, dev: nn.Mlp) -> dict[str, bool]:
    """The developmental actor's transfer invariants against its quad actor:
    mask, the frozen entries are exactly W0[:, :18], b0, W1 and b1; frozen,
    those entries are bit-equal to the quad's; block, on inputs whose tilt
    columns are zero the hidden stack equals a zero-padded quad stack, run
    through identically shaped matrix products."""
    n = Platform.QUAD.obs_dim
    padded = nn.Mlp(dev.shapes, output_tanh=True)      # all zero, nothing frozen
    padded.weights[0][:, :n], padded.biases[0][:] = quad.weights[0], quad.biases[0]
    padded.weights[1][:], padded.biases[1][:] = quad.weights[1], quad.biases[1]
    padded.frozen_w[0][:, :n] = padded.frozen_b[0][:] = True
    padded.frozen_w[1][:] = padded.frozen_b[1][:] = True
    frozen = padded.frozen
    x = np.zeros((50, dev.in_dim))
    x[:, :n] = np.random.default_rng(3).standard_normal((50, n))
    return {"mask": bool(np.array_equal(dev.frozen, frozen)),
            "frozen": dev.params[frozen].tobytes() == padded.params[frozen].tobytes(),
            "block": all(np.array_equal(h_dev, h_quad) for h_dev, h_quad in
                         zip(nn.activations(dev, x)[1:3], nn.activations(padded, x)[1:3]))}


def _hand_built_pair() -> tuple[nn.Mlp, nn.Mlp]:
    """A small quad actor and a tilt actor that holds its hidden stack
    frozen, as the transfer invariants require."""
    rng = np.random.default_rng(0)
    quad = nn.make_mlp([18, 6, 5, 4], rng, output_tanh=True)
    dev = nn.make_mlp([22, 6, 5, 8], rng, output_tanh=True)
    dev.weights[0][:, :18], dev.biases[0][:] = quad.weights[0], quad.biases[0]
    dev.weights[1][:], dev.biases[1][:] = quad.weights[1], quad.biases[1]
    dev.frozen_w[0][:, :18] = dev.frozen_b[0][:] = True
    dev.frozen_w[1][:] = dev.frozen_b[1][:] = True
    return quad, dev


class TestTransferInvariants:
    def test_frozen_identity_after_stage2(self, artifacts):
        checks = _transfer_invariants(_actor(_final("quad", SEEDS[0])),
                                      _actor(_final("dev", SEEDS[0])))
        report("transfer invariants (frozen bit-identity, block identity)",
               all(checks.values()), " ".join(f"{k}={v}" for k, v in checks.items()))

    def test_check_rejects_cleared_flags_and_moved_weights(self):
        quad, dev = _hand_built_pair()
        assert _transfer_invariants(quad, dev) == dict(mask=True, frozen=True, block=True)
        dev.frozen[:] = False
        assert _transfer_invariants(quad, dev) == dict(mask=False, frozen=True, block=True)
        quad, dev = _hand_built_pair()
        dev.weights[1][2, 3] = np.nextafter(dev.weights[1][2, 3], np.inf)
        assert _transfer_invariants(quad, dev) == dict(mask=True, frozen=False, block=False)


# --- 9. waypoint mission -----------------------------------------------------

class TestWaypointMission:
    def test_policy_and_pid_fly_square(self, artifacts):
        mission = SQUARE_MISSION
        pid_a = run_waypoint_mission("pid", mission, PARAMS)
        pid_b = run_waypoint_mission("pid", mission, PARAMS)
        pid_ok = pid_a.all_visited
        repro_ok = pid_a.trace == pid_b.trace

        dev_actor = _actor(_final("dev", SEEDS[0]))
        pol_a = run_waypoint_mission(dev_actor, mission, PARAMS)
        pol_b = run_waypoint_mission(dev_actor, mission, PARAMS)
        pol_ok = pol_a.all_visited
        repro_ok = repro_ok and pol_a.trace == pol_b.trace

        ok = pid_ok and pol_ok and repro_ok
        report("waypoint mission (policy + PID, deterministic)", ok,
               f"pid_hits={pid_a.hits} policy_hits={pol_a.hits} "
               f"reproducible={repro_ok}")
