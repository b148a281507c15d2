#!/usr/bin/env python3
"""Split the start-up of a funcobs CLI process into its parts.

Times fresh interpreters running `-c pass`, `-c "import numpy"`,
`-c "import funcobs.cli"` in the calling environment,
`-c "import funcobs.cli"` again from cached bytecode, and a whole
`funcobs analyze --builtin double-integrator` (no --out), so that a
command's process stands next to its bare import.  The runs are interleaved
round by round so that drift of the machine's speed falls on all five
alike.  It prints one JSON line: the median wall and user+sys seconds and
the median max RSS (MB) of each, and the number of threads the process
holds after `import funcobs.cli` (null where /proc/self/task does not
exist).  Max RSS is what `os.wait4` reports, as perfbench measures it; on
Linux a child inherits the RSS of the process that spawns it as a floor,
so run the script on its own, not from a larger process.  funcobs is
imported from this checkout's src/; the thread variables of the calling
environment pass through, so

    OPENBLAS_NUM_THREADS=2 python scripts/startup_split.py --runs 25

shows the cost of a BLAS pool.  The cached-bytecode run drops
PYTHONDONTWRITEBYTECODE and sets PYTHONPYCACHEPREFIX to a temporary
directory, never the checkout, which one untimed run fills first; with
PYTHONDONTWRITEBYTECODE=1 in the calling environment, the two funcobs
imports differ by the time spent compiling.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CACHED = "import funcobs.cli, cached bytecode"
CODES = {
    "pass": "pass",
    "import numpy": "import numpy",
    "import funcobs.cli": "import funcobs.cli",
    CACHED: "import funcobs.cli",
    "analyze --builtin double-integrator": (
        "import sys, funcobs.cli; sys.exit(funcobs.cli.main(['analyze', '--builtin', 'double-integrator']))"
    ),
}
TASKS_CODE = (
    "import json, os, funcobs.cli; t = '/proc/self/task'; "
    "print(json.dumps(len(os.listdir(t)) if os.path.isdir(t) else None))"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_once(code: str, env: dict) -> tuple[float, float, float]:
    """(wall s, user+sys s, max RSS MB) of one fresh interpreter running code."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    if proc.returncode != 0:
        raise SystemExit(f"python -c {code!r} failed")
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def startup_split(runs: int) -> dict:
    env = _env()
    names = list(CODES)
    samples = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as cache:
        envs = dict.fromkeys(names, env)
        envs[CACHED] = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        envs[CACHED]["PYTHONPYCACHEPREFIX"] = cache
        run_once(CODES[CACHED], envs[CACHED])  # fills the cache, untimed
        for r in range(runs):
            for name in names[r % len(names):] + names[: r % len(names)]:
                samples[name].append(run_once(CODES[name], envs[name]))
    out = subprocess.run([sys.executable, "-c", TASKS_CODE], env=env, capture_output=True, text=True, check=True)
    return {
        "runs": runs,
        **{
            name: {
                "wall_s": round(statistics.median(w for w, _, _ in s), 4),
                "cpu_s": round(statistics.median(c for _, c, _ in s), 4),
                "max_rss_mb": round(statistics.median(r for _, _, r in s), 2),
            }
            for name, s in samples.items()
        },
        "tasks_after_cli_import": json.loads(out.stdout),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=15, help="fresh processes per command (default 15)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    print(json.dumps(startup_split(args.runs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
