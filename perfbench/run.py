#!/usr/bin/env python3
"""funcobs benchmark: real CLI runs, checked against reference verdicts.

    python3 perfbench/run.py --workload cstr-analyze --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --workload all --quick    # smoke run, reduced sizes

Untraced (``--trace 0``): every op is a fresh Python process calling
``funcobs.cli.main(argv)``, timed from outside with ``os.wait4``.  The load
is closed-loop and serial: one op at a time.  A pass runs the workload's
fixed op list once; passes repeat while the next one still fits in
``--seconds`` (at least one pass).  Timings are medians over passes of the
pass's summed op times, so the number of passes does not change them.

Traced (``--trace 1``): the same ops run in this process, once plain and
once with every public function of the funcobs layers wrapped in a span
(see tracing.py); the per-layer metrics come from those spans.

An op fails on a non-zero exit code, on an artifact that disagrees with the
reference verdicts, or on artifacts that differ from an earlier run of the
same op with identical inputs.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Environment,
per-op records and span exports are written under ``.perfbench/``.

Only the standard library is used here; funcobs runs from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "funcobs" / "data"
OUT = ROOT / ".perfbench"
WORK = OUT / "work"

OP_CODE = "import sys; from funcobs.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_CODE = "import funcobs.cli; print(funcobs.cli.__file__)"
SETUP_IMPORTS = 7
IMPORTTIME_RUNS = 3
SECONDS_DEFAULT = 30

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, span names whose outermost calls are timed).
LAYER_TIMES = {
    "lie.table_build_s": ("lie.observability_set", "lie.q_derivatives"),
    "lie.jacobian_s": ("lie.observability_jacobian",),
    "expr.evaluate_s": ("expr.evaluate",),
    "expr.simplify_s": ("expr.simplify",),
    "expr.differentiate_s": ("expr.differentiate",),
    "expr.compile_s": ("expr.compile_exprs",),
    "expr.equivalence_s": ("expr.equivalent_numeric",),
    "observability.rank_s": ("observability.numeric_rank",),
    "observability.index_s": ("observability.observability_index",),
    "observability.rank_check_s": ("observability.functional_rank_check",),
    "observability.candidate_s": ("observability.functional_index_candidate",),
    "observability.verify_psi_s": ("observability.verify_psi",),
    "sim.simulate_s": (
        "sim.simulate_coupled",
        "sim.simulate_linear_observer",
        "sim.simulate_custom_observer",
        "sim.integrate_plant",
    ),
    "sim.csv_s": ("sim.write_csv",),
    "sim.exact_grid_s": ("sim.exact_error_grid",),
    "synthesis.verify_invariance_s": ("synthesis.verify_invariance",),
    "synthesis.design_s": ("synthesis.synthesize_nonlinear", "synthesis.design_linear_observer"),
    "system.equivalence_s": ("system.system_equivalence",),
}
LAYER_CALLS = {
    "lie.table_builds": ("lie.observability_set", "lie.q_derivatives"),
    "lie.jacobian_calls": ("lie.observability_jacobian",),
    "expr.evaluate_calls": ("expr.evaluate",),
    "expr.compile_calls": ("expr.compile_exprs",),
    "observability.rank_calls": ("observability.numeric_rank",),
}
LAYER_COUNTS = (
    "expr.equivalence_skipped",
    "observability.samples_failed",
    "sim.steps",
    "sim.csv_bytes",
)
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.self_s": "s",
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    **{f"lie.nodes_order_{k}": "count" for k in range(tracing.ORDERS)},
    "expr.equivalence_skipped": "count",
    "observability.samples_failed": "count",
    "sim.steps": "count",
    "sim.step_us": "us",
    "sim.csv_bytes": "bytes",
    "trace.overhead_ratio": "1",
}


class OpRecord:
    def __init__(self, name: str, code, wall: float, cpu=None, rss_mb=None, problems=()):
        self.name = name
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.problems = list(problems)

    def to_dict(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(workload: str, seed: int, trace: bool, quick: bool) -> dict:
    blas = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in blas},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log: Path) -> OpRecord:
    """Run one process to completion; wall, user+sys and max RSS via wait4."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpRecord(
        name="", code=proc.returncode, wall=wall,
        cpu=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0,
    )


def run_cli(args: list[str], log: Path) -> OpRecord:
    return spawn([sys.executable, "-c", OP_CODE, *args], log)


def prepare(plan: workloads.Plan):
    for k, args in enumerate(plan.prepare):
        rec = run_cli(args, WORK / f"prepare-{k}.log")
        if rec.code != 0:
            raise RuntimeError(f"preparation step {args[:2]} exited {rec.code}")


def import_times(n: int) -> list[float]:
    """Wall time of a fresh interpreter importing funcobs.cli, after one
    untimed import that also confirms funcobs comes from this checkout."""
    log = WORK / "import.log"
    rec = spawn([sys.executable, "-c", IMPORT_CODE], log)
    where = log.read_text().strip()
    if rec.code != 0 or not where.startswith(str(SRC)):
        raise RuntimeError(f"funcobs.cli does not import from {SRC}: {where[-300:]}")
    return [spawn([sys.executable, "-c", "import funcobs.cli"], log).wall for _ in range(n)]


def importtime(n: int) -> tuple[float, float]:
    """(funcobs, scipy) cumulative import seconds from -X importtime, medians."""
    tot, sci = [], []
    for _ in range(n):
        log = WORK / "importtime.log"
        rec = spawn([sys.executable, "-X", "importtime", "-c", "import funcobs.cli"], log)
        if rec.code != 0:
            raise RuntimeError("python -X importtime -c 'import funcobs.cli' failed")
        a, b = _parse_importtime(log.read_text())
        tot.append(a)
        sci.append(b)
    return statistics.median(tot), statistics.median(sci)


def _parse_importtime(text: str) -> tuple[float, float]:
    rows = []  # (depth, name, cumulative us), children listed before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(cum)))
    funcobs_us = sum(c for d, n, c in rows if d == 0 and n.split(".")[0] == "funcobs")
    scipy_us = 0
    for i, (depth, name, cum) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), None)
        if parent is None or parent.split(".")[0] != "scipy":
            scipy_us += cum
    return funcobs_us / 1e6, scipy_us / 1e6


# ---------------------------------------------------------------------------
# artifacts


def digest(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def finish_op(op: workloads.Op, rec: OpRecord, out: Path, seen: dict) -> OpRecord:
    """Check the op's exit code and artifacts, then remove the artifacts."""
    rec.name = op.name
    if rec.code != 0:
        rec.problems.append(f"exit code {rec.code}")
    else:
        try:
            rec.problems += op.check(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            rec.problems.append(f"artifacts unreadable: {exc!r}")
        hashes = digest(out)
        if seen.setdefault(op.name, hashes) != hashes:
            rec.problems.append("artifacts differ from an earlier run with identical inputs")
    shutil.rmtree(out, ignore_errors=True)
    return rec


# ---------------------------------------------------------------------------
# untraced run


def run_untraced(plan: workloads.Plan, seconds: float, quick: bool):
    setup = import_times(1 if quick else SETUP_IMPORTS)
    passes: list[list[OpRecord]] = []
    seen: dict = {}
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        records = []
        for op in plan.ops:
            out = WORK / f"pass{len(passes)}" / op.name
            rec = run_cli([*op.args, "--out", str(out)], WORK / f"{op.name}.log")
            records.append(finish_op(op, rec, out, seen))
        passes.append(records)
        now = time.perf_counter()
        if quick or (now - t0) + (now - t_pass) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r.wall for r in recs) for recs in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in recs) for recs in passes),
        "peak_rss_mb": max(r.rss_mb for recs in passes for r in recs),
    }
    notes = {
        "setup_s": f"median of {len(setup)} imports",
        "wall_s": f"median over {len(passes)} passes of the summed wall of {len(plan.ops)} ops",
        "cpu_s": f"median over {len(passes)} passes of the summed user+sys of {len(plan.ops)} ops",
        "peak_rss_mb": f"largest max-RSS of {sum(map(len, passes))} op processes",
    }
    records = [r for recs in passes for r in recs]
    return metrics, E2E_UNITS, notes, records, {}


# ---------------------------------------------------------------------------
# traced run


def _in_process_pass(cli, plan: workloads.Plan, tag: str, seen: dict, rec=None):
    records = []
    for k, op in enumerate(plan.ops):
        out = WORK / tag / op.name
        sink = io.StringIO()
        if rec is not None:
            rec.op = k
            span = rec.begin(tracing.ROOT_SPAN)
        t0 = time.perf_counter()
        problems = []
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main([*op.args, "--out", str(out)])
        except Exception:  # a crash is a failed op, not a crashed benchmark
            code, problems = None, [traceback.format_exc()]
        finally:
            wall = time.perf_counter() - t0
            if rec is not None:
                rec.end(span)
        records.append(finish_op(op, OpRecord(op.name, code, wall, problems=problems), out, seen))
    return records


def layer_metrics(spans: list[dict], rec: tracing.Recorder, n_ops: int) -> dict:
    per_op = lambda x: x / n_ops
    m = {name: per_op(tracing.inclusive(spans, names)) for name, names in LAYER_TIMES.items()}
    m.update({name: per_op(tracing.calls(spans, names)) for name, names in LAYER_CALLS.items()})
    m.update({name: per_op(rec.counts[name]) for name in LAYER_COUNTS})
    m.update({f"lie.nodes_order_{k}": n for k, n in enumerate(rec.max_nodes)})
    selfs = tracing.self_times(spans)
    m["cli.self_s"] = per_op(sum(t for s, t in zip(spans, selfs) if s["name"] == tracing.ROOT_SPAN))
    steps = rec.counts["sim.steps"]
    m["sim.step_us"] = 1e6 * tracing.inclusive(spans, LAYER_TIMES["sim.simulate_s"]) / steps if steps else 0.0
    return m


def run_traced(plan: workloads.Plan, workload: str, seed: int, quick: bool):
    import_s, scipy_s = importtime(1 if quick else IMPORTTIME_RUNS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import funcobs.cli as cli

    if not cli.__file__.startswith(str(SRC)):
        raise RuntimeError(f"funcobs.cli imported from {cli.__file__}, not {SRC}")
    seen: dict = {}
    plain = _in_process_pass(cli, plan, "plain", seen)
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        traced = _in_process_pass(cli, plan, "traced", seen, rec)
    finally:
        undo()
    spans = rec.spans()
    path = OUT / "spans" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    rec.export(path)

    n = len(plan.ops)
    metrics = layer_metrics(spans, rec, n)
    metrics["cli.import_s"] = import_s
    metrics["cli.import_scipy_s"] = scipy_s
    traced_wall = sum(r.wall for r in traced)
    metrics["trace.overhead_ratio"] = traced_wall / sum(r.wall for r in plain)
    notes = {name: "per op" for name in metrics}
    notes.update({f"lie.nodes_order_{k}": "largest table entry" for k in range(tracing.ORDERS)})
    notes["cli.import_s"] = notes["cli.import_scipy_s"] = "-X importtime, median"
    notes["trace.overhead_ratio"] = "traced over plain in-process wall"
    findings = {"spans": str(path.relative_to(ROOT))}
    if workload == "cstr-analyze" and not quick:
        share = (metrics["expr.evaluate_s"] + metrics["lie.table_build_s"]) * n / traced_wall
        findings["evaluate_plus_table_share"] = [share, share >= 0.85, ">= 0.85"]
        findings["table_builds_per_op"] = [metrics["lie.table_builds"], metrics["lie.table_builds"] >= 4, ">= 4"]
        findings["nodes_order_5"] = [metrics["lie.nodes_order_5"], metrics["lie.nodes_order_5"] == 12951, "== 12951"]
    return metrics, LAYER_UNITS, notes, plain + traced, findings


# ---------------------------------------------------------------------------
# reporting


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = environment(workload, seed, trace, quick)
    plan = workloads.BUILDERS[workload](seed, quick, DATA, WORK / "prepare")
    try:
        prepare(plan)
        if trace:
            metrics, units, notes, records, findings = run_traced(plan, workload, seed, quick)
        else:
            metrics, units, notes, records, findings = run_untraced(plan, seconds, quick)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = sum(1 for r in records if r.problems)
    result = {
        "environment": env,
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes,
        "findings": findings,
        "ops": [r.to_dict() for r in records],
    }
    path = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_report(workload: str, result: dict):
    print(f"== {workload} ==")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} {note}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':32s} {ratio:14.6g} {'1':6s} {result['failed']} failed / {result['attempted']} attempted")
    for r in result["ops"]:
        for p in r["problems"]:
            print(f"  FAILED {r['name']}: {p}")
    for name, value in result["findings"].items():
        if isinstance(value, list):
            got, ok, want = value
            print(f"  finding {name}: {got:.6g} ({'as expected' if ok else 'MISMATCH'}, expected {want})")
        else:
            print(f"  finding {name}: {value}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=SECONDS_DEFAULT)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="smoke run: reduced sizes, one pass")
    args = ap.parse_args(argv)

    if not (SRC / "funcobs" / "cli.py").is_file():
        print(f"error: no funcobs sources at {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace), args.quick)
        print_report(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{wl}.{k}": v for wl, res in results.items() for k, v in res["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
