"""End-to-end benchmark of the `smilansky-lab` command line.

    python3 perfbench/run.py --workload oned --seed 0 --seconds 5 --trace 0

Each operation is one `smilansky-lab` invocation in a fresh process, started
from this single parent process, closed loop (the next invocation starts when
the previous one has exited), with the BLAS thread count pinned in the child
environment to the number of CPUs this process may use.  A run attempts whole
rounds of its workload's operations until --seconds have passed (at least
one round), checks every output against `checks.py`, and prints one JSON
object as its last line.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs every operation once untraced and once
under `traced_cli.py` and reports the per-layer metrics.  Raw outputs,
generated configs, spans and a run record go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
RUNS = HERE / "runs"

# A run must end within 180 s; no new round starts unless the previous one
# would fit again before this many seconds, and a hung command is killed.
DEADLINE_S = 170.0
SETUP_PROBES = 3
LADDER = [4.0, 8.0, 16.0]
EPS = [0.1, 0.05, 0.02]
# eps = 0.015 needs k = 2^54, where float64 k - 1 == k breaks build_cutoff.
EPS_FAILING = [0.1, 0.05, 0.015]
# `critical` runs at a looser energy tolerance than its default 1e-6, which
# costs 19 threshold evaluations (70 to 80 s) at this commit; 1e-2 costs 7.
CRITICAL_TOL = 1e-2
CLASSIFY_TOL = 1e-6

PROBE = ("import sys, time\n"
         "from smilansky_lab.cli import load_config\n"
         "load_config(sys.argv[1])\n"
         "print(time.monotonic())\n")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `group` names its per-command metric (None keeps
    it out of every time metric), `check` names its output check."""

    group: str | None
    check: str
    config: str
    args: tuple[str, ...]
    params: dict = field(default_factory=dict)


def _fmt(values) -> str:
    return ",".join(f"{v:g}" for v in values)


WORKLOADS = {
    "oned": [
        Op("critical", "critical", "single_channel",
           ("critical", "--tol", f"{CRITICAL_TOL:g}"), {"tol": CRITICAL_TOL}),
        Op("classify", "classify", "two_channel", ("classify",), {"tol": CLASSIFY_TOL}),
        Op("bound", "bound", "single_channel", ("bound",)),
    ],
    "scan": [
        Op("scan_sub", "scan_sub", "single_channel",
           ("scan", "--ladder", _fmt(LADDER), "--format", "json"), {"ladder": LADDER}),
        Op("scan_sup", "scan_sup", "supercritical",
           ("scan", "--ladder", _fmt(LADDER), "--format", "json"), {"ladder": LADDER}),
    ],
    "weyl": [
        Op("weyl", "weyl", "supercritical",
           ("weyl", "--eps", _fmt(EPS), "--format", "json"), {"eps": EPS}),
        Op("weyl", "weyl", "supercritical",
           ("weyl", "--eps", _fmt(EPS), "--mu", "2.5", "--format", "json"), {"eps": EPS}),
        Op("weyl", "weyl", "supercritical_interval",
           ("weyl", "--eps", _fmt(EPS), "--format", "json"), {"eps": EPS}),
        Op(None, "weyl", "supercritical_shipped",
           ("weyl", "--eps", _fmt(EPS_FAILING), "--format", "json"), {"eps": EPS_FAILING}),
    ],
}
GROUPS = tuple(dict.fromkeys(op.group for ops in WORKLOADS.values() for op in ops if op.group))
END_TO_END = ("round_s", "peak_rss_mib", "setup_s")


# --- inputs -----------------------------------------------------------------


# Config name -> shipped file it starts from.
SHIPPED = {"single_channel": "single_channel.json", "supercritical": "supercritical.json",
           "two_channel": "two_channel.json", "supercritical_shipped": "supercritical.json"}


def make_configs(seed: int) -> dict[str, dict]:
    """The seed's model configs.  Seed 0 is the shipped configs/ unchanged.
    Other seeds draw each coupling within about 1 % of the shipped one, well
    on the same side of the transition (lambda_crit = 2.866 for the unit cos2
    channel), and the single-channel amplitude, which moves the critical
    coupling, from 1 +- 1e-3.  Over these ranges every threshold and every
    bisection does the same work as at seed 0; wider ones reach couplings
    (near 2.045 for cos2, 1.88 for the quartic channel) where a threshold
    costs half, or where `critical` takes more steps.  The failing weyl
    operation always runs the shipped file."""
    out = {name: json.loads((CONFIGS / file).read_text()) for name, file in SHIPPED.items()}
    if seed != 0:
        rng = random.Random(seed)
        sub = out["single_channel"]["channels"][0]
        sub["lambda"] = rng.uniform(1.98, 2.02)
        sub["profile"]["amplitude"] = rng.uniform(1.0 - 1e-3, 1.0 + 1e-3)
        out["supercritical"]["channels"][0]["lambda"] = rng.uniform(4.54, 4.63)
        first, second = out["two_channel"]["channels"]
        first["lambda"] = rng.uniform(4.54, 4.63)
        second["lambda"] = rng.uniform(1.782, 1.818)
    out["supercritical_interval"] = dict(
        copy.deepcopy(out["supercritical"]),
        x_domain={"type": "interval", "c": 1.0, "bc": "dirichlet"})
    return out


def write_configs(configs: dict[str, dict], run_dir: Path) -> dict[str, Path]:
    """Write each config to the run directory; an unchanged shipped config
    is copied byte for byte."""
    paths = {}
    for name, cfg in configs.items():
        path = paths[name] = run_dir / f"{name}.json"
        shipped = CONFIGS / SHIPPED.get(name, "-")
        if name in SHIPPED and json.loads(shipped.read_text()) == cfg:
            path.write_bytes(shipped.read_bytes())
        else:
            path.write_text(json.dumps(cfg, indent=1) + "\n")
    return paths


# --- processes --------------------------------------------------------------


def child_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


@dataclass
class Result:
    op: Op
    seconds: float
    rss_mib: float
    ok: bool
    output: dict | None
    stdout: Path
    spans: Path | None = None


def run_process(argv: list[str], env: dict, stdout: Path, stderr: Path,
                limit: float) -> tuple[float, float, int]:
    """Run argv to completion; returns (wall seconds, peak RSS MiB, exit code).
    The process is killed if it outlives `limit` seconds."""
    with open(stdout, "w") as out, open(stderr, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(limit, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


class Runner:
    def __init__(self, run_dir: Path, config_paths: dict[str, Path], deadline: float):
        self.run_dir = run_dir
        self.config_paths = config_paths
        self.deadline = deadline
        self.env, self.threads = child_env()
        self.count = 0

    def run(self, op: Op, traced: bool) -> Result:
        self.count += 1
        stem = self.run_dir / f"{self.count:03d}-{op.args[0]}{'-traced' if traced else ''}"
        cli_args = [op.args[0], "--config", str(self.config_paths[op.config]), *op.args[1:]]
        if traced:
            spans = stem.with_suffix(".spans.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                    f"{self.count:03d}", "--", *cli_args]
        else:
            spans = None
            argv = [sys.executable, "-m", "smilansky_lab.cli", *cli_args]
        stdout = stem.with_suffix(".out")
        seconds, rss, code = run_process(argv, self.env, stdout, stem.with_suffix(".err"),
                                         self.deadline - time.monotonic())
        output = None
        if code == 0:
            try:
                output = json.loads(stdout.read_text())
            except json.JSONDecodeError:
                code = -1
        return Result(op, seconds, rss, code == 0, output, stdout, spans)

    def setup_seconds(self) -> float:
        """Process start until the package is imported and a config loaded."""
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", PROBE,
                               str(self.config_paths["single_channel"])],
                              env=self.env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=max(self.deadline - start, 1.0))
        return float(done.stdout) - start


# --- per-layer metrics from spans -------------------------------------------


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _under(spans: list[list], i: int, name: str) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(pairs: list[tuple[Result, Result]]) -> dict[str, float]:
    """Per-layer metrics over the (untraced, traced) result pairs of the
    timed operations."""
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    calls = distinct = 0
    for phase in ("sub", "sup"):
        for y in LADDER:
            for leaf in ("unknowns", "assemble_s", "eig_s", "residual"):
                m[f"grid2d.{phase}.Y{y:g}.{leaf}"] = 0.0
    for _, traced in pairs:
        spans = json.loads(traced.spans.read_text())["spans"]
        own = _self_times(spans)
        keys = set()
        for i, (name, _, start, end, attrs) in enumerate(spans):
            dur = end - start
            add(f"{name}.calls", 1)
            add(f"{name}.s", dur)
            add(f"{name}.self_s", own[i])
            add(f"{name.split('.')[0]}.self_s", own[i])
            if name == "eigs.sturm_smallest":
                add("eigs.sturm_smallest.rows", attrs["rows"])
            elif name == "oned.threshold":
                keys.add(attrs["key"])
                if _under(spans, i, "oned.critical_coupling"):
                    add("oned.critical_coupling.threshold_calls", 1)
            elif name in ("grid2d.assemble_h2d", "grid2d.lowest_eigenvalues"):
                prefix = f"grid2d.{traced.op.group.split('_')[1]}.Y{attrs['Y']:g}"
                if name == "grid2d.assemble_h2d":
                    add(f"{prefix}.assemble_s", dur)
                else:
                    add(f"{prefix}.eig_s", dur)
                    m[f"{prefix}.unknowns"] = attrs["unknowns"]
                    m[f"{prefix}.residual"] = attrs["residual"]
        calls += sum(1 for s in spans if s[0] == "oned.threshold")
        distinct += len(keys)
    m["oned.threshold.unique_share"] = distinct / calls if calls else 1.0
    m["model.load_config_s"] = m.get("model.load_config.s", 0.0)

    for group in GROUPS:
        mine = [(u, t) for u, t in pairs if u.op.group == group]
        m[f"cmd.{group}_s"] = statistics.median(u.seconds for u, _ in mine) if mine else 0.0
        m[f"cmd.{group}.trace_overhead_s"] = (
            statistics.median(t.seconds - u.seconds for u, t in mine) if mine else 0.0)
    return m


# --- environment ------------------------------------------------------------


def environment(threads: int) -> dict:
    def version(mod: str) -> str | None:
        if importlib.util.find_spec(mod) is None:
            return None
        return __import__(mod).__version__

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "blas_threads": threads,
    }


# --- main -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (SRC / "smilansky_lab" / "cli.py").is_file() or not CONFIGS.is_dir():
        print(f"no smilansky_lab source under {SRC} or no {CONFIGS}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [w["name"] for w in wanted]
    if not args.trace and sorted(names) != sorted(END_TO_END):
        print(f"BENCHMARK.json end_to_end must be {END_TO_END}", file=sys.stderr)
        return 2

    run_dir = RUNS / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    configs = make_configs(args.seed)
    runner = Runner(run_dir, write_configs(configs, run_dir), deadline)
    env = environment(runner.threads)
    refs = checks.References()
    ops = WORKLOADS[args.workload]

    failures: list[str] = []
    results: list[Result] = []

    def attempt(op: Op, traced: bool) -> Result:
        res = runner.run(op, traced)
        results.append(res)
        if res.ok:
            try:
                checks.check(op.check, res.output, configs[op.config], op.params, refs)
            except checks.CheckFailed as exc:
                failures.append(f"{res.stdout.name}: {exc}")
        return res

    setups: list[float] = []
    layers: dict[str, float] = {}
    rounds: list[float] = []
    pairs: list[tuple[Result, Result]] = []
    if args.trace:
        for op in ops:
            plain, traced = attempt(op, False), attempt(op, True)
            if op.group and plain.ok and traced.ok:
                pairs.append((plain, traced))
        layers = metrics = layer_metrics(pairs)
    else:
        setups = [runner.setup_seconds() for _ in range(SETUP_PROBES)]
        measure_start = time.monotonic()
        while True:
            round_start = time.monotonic()
            done = [attempt(op, False) for op in ops]
            rounds.append(sum(r.seconds for r in done if r.ok and r.op.group))
            now = time.monotonic()
            if (now - measure_start >= args.seconds
                    or now + (now - round_start) > deadline):
                break
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": max(r.rss_mib for r in results),
            "round_s": statistics.median(rounds),
        }

    if args.trace:
        # a layer the workload never enters has no spans: 0 calls, 0 s
        metrics = {name: metrics.get(name, 0.0) for name in names}
    failed = sum(1 for r in results if not r.ok)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "setup_s": setups, "round_s": rounds,
        "operations": [{"stdout": r.stdout.name, "group": r.op.group, "ok": r.ok,
                        "seconds": r.seconds, "rss_mib": r.rss_mib} for r in results],
        "check_failures": failures, "metrics": metrics, "all_layer_metrics": layers,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                    for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
