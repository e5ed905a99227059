"""quakeval benchmark: seeded workloads run through the CLI, in process.

    python3 bench/run.py --workload score --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one caller in one process runs the
workload's commands with ``quakeval.cli.run``, one after another, and
starts the next pass when the last one ends.  After one warm-up pass,
passes repeat while one more still ends within ``--seconds`` (at least
one runs); each command's time is its median over passes, and ``wall_s``
is the sum of those medians.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced passes, which replay each command's library
calls with spans, and prints the per-layer metrics.  Every pass is followed by
output checks; failed commands and checks count into ``failed``.  The
last line of standard output is one JSON object; a fuller result file,
with the run's metadata, goes to ``bench/results/``.  See
``bench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_program():
    """Import ``quakeval.cli`` from this checkout's ``src``, nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import quakeval.cli
    if not Path(quakeval.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"quakeval was imported from {quakeval.cli.__file__}, "
                          f"not from {src}")
    return quakeval.cli


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Commands and checks attempted, and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def checks(self, label: str, run) -> None:
        try:
            results = run()
        except Exception:  # a missing or malformed output fails the checks
            traceback.print_exc()
            self.record(f"{label}: checks", False)
            return
        for name, ok in results:
            self.record(f"{label}: {name}", bool(ok))


def repeat_for(seconds: float, *passes) -> list[list]:
    """Run the passes in turn once as a warm-up, whose results are dropped;
    then once more, and again for as long as a round that lasts as long as
    the last one would still end within ``seconds``.  Returns each pass's
    results after the warm-up."""
    for one_pass in passes:
        one_pass()
    results = [[] for _ in passes]
    start = last = perf_counter()
    while not results[0] or 2 * perf_counter() - last - start <= seconds:
        last = perf_counter()
        for out, one_pass in zip(results, passes):
            out.append(one_pass())
    return results


def time_import() -> float:
    """Wall time of ``import quakeval.cli`` in a fresh interpreter, which is
    what every CLI invocation pays."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import quakeval.cli"], env=env,
                   check=True, timeout=120)
    return perf_counter() - start


def cli_pass(cli, wl, inputs: dict, out: Path, tally: Tally) -> dict[str, float]:
    """One untraced pass; returns each command's wall time."""
    out.mkdir(parents=True, exist_ok=True)
    times = {}
    for name, argv in wl.commands(inputs, out, wl.sizes):
        start = perf_counter()
        try:
            code = cli.run(argv)
        except Exception:
            traceback.print_exc()
            code = None
        times[name] = perf_counter() - start
        tally.record(f"cli: {name}", code == 0)
    tally.checks("cli", lambda: wl.check(inputs, out, wl.sizes))
    return times


def _agree(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b))
    return a == b


def replay_agreement(cli_out: Path, trace_out: Path) -> list:
    """The replay's reports match the CLI's on every field both carry."""
    results = []
    for path in sorted(trace_out.glob("*.json")):
        if not (cli_out / path.name).exists() or path.name == "model.json":
            continue
        mine = json.loads(path.read_text(encoding="utf-8"))
        theirs = json.loads((cli_out / path.name).read_text(encoding="utf-8"))
        keys = (mine.keys() & theirs.keys()) - {"command", "config"}
        results.append((f"replay_agrees_{path.stem}",
                        bool(keys) and all(_agree(mine[k], theirs[k]) for k in keys)))
    return results


def traced_pass(tracing, wl, inputs: dict, out: Path, cli_out: Path, tally: Tally):
    out.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    for name, argv in wl.commands(inputs, out, wl.sizes):
        ok = True
        with tracer.span(f"cli.{name}"):
            try:
                tracing.replay(argv, name, tracer)
            except Exception:
                traceback.print_exc()
                ok = False
        tally.record(f"replay: {name}", ok)
    tally.checks("replay", lambda: wl.check(inputs, out, wl.sizes))
    tally.checks("replay", lambda: replay_agreement(cli_out, out))
    return tracer


def _median_by_key(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def run_workload(cli, wl, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    setup_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(time_import())
        start = perf_counter()
        inputs = wl.setup(seed, work / "inputs")
        setup_times.append(perf_counter() - start + import_times[-1])

    tally = Tally()
    cli_out = work / "cli"
    untraced = lambda: cli_pass(cli, wl, inputs, cli_out, tally)  # noqa: E731
    if trace:
        import tracing
        origin = perf_counter()
        passes, tracers = repeat_for(seconds, untraced, lambda: traced_pass(
            tracing, wl, inputs, work / "trace", cli_out, tally))
    else:
        (passes,) = repeat_for(seconds, untraced)
    walls = [sum(p.values()) for p in passes]
    commands = _median_by_key(passes)
    reps = {"sig_reps_per_s": ("simulate-significance", "sim_replicates"),
            "delay_reps_per_s": ("simulate-delays", "delay_replicates")}
    rates = {m: wl.sizes[size] / commands[cmd] if cmd in commands else None
             for m, (cmd, size) in reps.items()}
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(commands.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {"command_s": commands, "pass_wall_s": walls,
              "setup_repeats_s": setup_times, "import_s": import_times}
    if trace:
        per_layer = _median_by_key([t.metrics() for t in tracers])
        traced_wall = statistics.median(t.top_level_s() for t in tracers)
        per_layer["trace.overhead_frac"] = (traced_wall - end_to_end["wall_s"]) \
            / end_to_end["wall_s"]
        per_layer.update({m: r or 0.0 for m, r in rates.items()})
        metrics = {k: {"value": per_layer[k], "unit": unit}
                   for k, unit in tracing.PER_LAYER_UNITS.items()}
        result["traced_wall_s"] = traced_wall
        result["spans"] = tracers[-1].rows(origin)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}
    failed = len(tally.failures)
    result.update({
        "end_to_end": {**end_to_end, **rates,
                       "failed_frac": failed / tally.attempted},
        "failures": tally.failures,
        "summary": {"correct": failed == 0, "attempted": tally.attempted,
                    "failed": failed, "metrics": metrics},
    })
    return result


def metadata(wl, seed: int, seconds: float, trace: bool, nproc: int) -> dict:
    import numpy
    import scipy
    return {"workload": wl.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "sizes": wl.sizes, "commit": commit_id(),
            "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("score", "calibrate", "score-kde"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(int(os.environ.get(var, nproc)), nproc))
    try:
        cli = load_program()
    except ImportError as exc:
        print(f"error: cannot import quakeval from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import workloads  # after the thread caps, since it loads numpy

    wl = workloads.workload(args.workload)
    trace = bool(args.trace)
    work = BENCH / ".work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run_workload(cli, wl, args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = metadata(wl, args.seed, args.seconds, trace, nproc)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}),
            encoding="utf-8")
    summary = result["summary"]
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=2) + "\n", encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in meta.items() if k != "sizes"))
    print(f"sizes: {json.dumps(wl.sizes)}")
    units = {**END_TO_END_UNITS, "sig_reps_per_s": "1/s",
             "delay_reps_per_s": "1/s", "failed_frac": "ratio"}
    for name, value in result["end_to_end"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>12} {units[name]}")
    if trace:
        for name, m in summary["metrics"].items():
            print(f"  {name:<40} {m['value']:>12.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
