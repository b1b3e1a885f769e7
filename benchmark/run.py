"""bellforge workload benchmark.

Usage, from the root of a source checkout::

    python3 benchmark/run.py --workload cli-closed-sum --seed 1 --seconds 30 --trace 0

Workloads (see ``benchmark/README.md`` for why each exists):

* ``cli-closed-sum``: one client, a fresh ``python -m bellforge`` process
  per request, closed-sum requests at or below the cap.
* ``cli-series``: the same, with series-route requests only.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics from a separate traced
run (``tracer.py``).  Every answer is checked against ``oracle.py`` after
the timed region.  A result file with the run's provenance, and with
``--trace 1`` a JSON-lines span dump, are written to ``.bench_results/``.
The program is run from ``src/`` of the checkout; without it the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from oracle import Oracle
from tracer import PER_LAYER, summarise, tail_percentile
from workloads import SETUP_ARGV, TAIL_PERCENTILE, WORKLOADS, Verdict, check_cli, cli_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_results"

# a run times one set-up before every SETUP_EVERY requests
SETUP_EVERY = 8
# A request takes well under a second at this commit.  Past this limit the
# process is killed and counted as failed, so a hang cannot stall the run.
REQUEST_TIMEOUT_S = 20.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, env, timeout):
    """Run ``cmd`` to completion; returns (start, wall_s, exit code or None
    on timeout, stdout, stderr).  A timed-out process is killed and reaped."""
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return start, time.monotonic() - start, None, "", "timeout"
    return start, time.monotonic() - start, proc.returncode, proc.stdout, proc.stderr


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


# --- CLI workloads ------------------------------------------------------------

def _cli_command(req, spans: Path | None):
    argv = list(req.argv)
    if req.spec is not None:
        spec_path = OUT / "specs" / (hashlib.sha1(req.spec.encode()).hexdigest() + ".json")
        if not spec_path.exists():
            spec_path.parent.mkdir(parents=True, exist_ok=True)
            spec_path.write_text(req.spec, encoding="utf-8")
        argv += ["--spec", str(spec_path)]
    if spans is None:
        return [sys.executable, "-m", "bellforge", *argv]
    return [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *argv]


def _check(req, outcome, oracle, tally, label):
    """Check one request's outcome (as :func:`spawn` returns it) and tally it."""
    _, _, code, out, err = outcome
    if code is None:
        tally.add(False, f"{label}{req.argv}: timeout")
        return Verdict(False, 0, "timeout")
    verdict = check_cli(req, code, out, oracle)
    tally.add(verdict.ok, f"{label}{req.argv}: {verdict.reason} {err.strip()[-200:]}")
    return verdict


def run_cli(workload, seed, seconds, trace, env, info):
    oracle = Oracle()
    tally = Tally()
    setup_cmd = [sys.executable, "-m", "bellforge", *SETUP_ARGV]
    setups = []
    spawn(setup_cmd, env, REQUEST_TIMEOUT_S)  # unmeasured: fills the bytecode cache
    stream = cli_requests(workload, seed)
    records = []
    start = time.monotonic()
    deadline = start + seconds
    index = 0
    while time.monotonic() < deadline:
        if not trace and index % SETUP_EVERY == 0:
            # set-up samples spread over the run see the same machine speed
            # as the requests around them
            setups.append(spawn(setup_cmd, env, REQUEST_TIMEOUT_S))
        req = next(stream)
        if not trace:
            records.append((req, spawn(_cli_command(req, None), env, REQUEST_TIMEOUT_S), None))
        else:
            # each request runs untraced and traced, alternating which goes first
            spans = OUT / "tmp" / f"{index}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.unlink(missing_ok=True)
            pair = []
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                cmd = _cli_command(req, spans if traced else None)
                pair.append((traced, spawn(cmd, env, REQUEST_TIMEOUT_S)))
            pair.sort(key=lambda p: p[0])
            records.append((req, pair[0][1], (pair[1][1], spans)))
        index += 1
    # the request loop's wall time, without the set-up samples taken in it
    run_wall = time.monotonic() - start - sum(s[1] for s in setups)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # everything below is outside the timed region
    for _, _, code, out, err in setups:
        tally.add(code == 0 and out == "n,value\n0,1\n1,1\n", f"setup: exit {code}: {err.strip()[-200:]}")
    rows = 0
    latencies = []
    passed = []  # per record: whether the untraced request passed its check
    templates: dict[str, list[float]] = {}
    for req, untraced, _ in records:
        wall = untraced[1]
        templates.setdefault(req.template, []).append(wall)
        latencies.append(wall)
        verdict = _check(req, untraced, oracle, tally, "")
        passed.append(verdict.ok)
        rows += verdict.rows
    info["templates"] = {
        name: {"requests": len(walls), "p50_s": statistics.median(walls)} for name, walls in sorted(templates.items())
    }
    info["requests"] = len(records)
    if not trace:
        q, tail = tail_percentile(latencies, TAIL_PERCENTILE[workload])
        info["req_tail_percentile"] = q
        info["latency_samples"] = len(latencies)
        info["setup_samples"] = len(setups)
        metrics = {
            "setup_s": (statistics.median(s[1] for s in setups), "s"),
            "req_p50_s": (statistics.median(latencies), "s"),
            "req_tail_s": (tail, "s"),
            "results_per_s": (rows / run_wall, "1/s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        return tally, metrics

    spans_all, counts = [], Counter()
    traced_wall = untraced_wall = traced_busy = 0.0
    for i, ((req, untraced, (traced, path)), untraced_ok) in enumerate(zip(records, passed)):
        t_start, t_wall = traced[:2]
        traced_ok = _check(req, traced, oracle, tally, "traced ").ok
        if not path.exists():
            continue
        spans, tail = _read_spans(path)
        counts.update(tail["counts"])
        for s in spans:
            s["request"] = i
        spans_all += spans
        # request wall time less interpreter start-up, imports and the dump
        meta = tail["meta"]
        traced_busy += t_wall - (meta["main_start"] - t_start) - meta["dump_s"]
        if traced_ok and untraced_ok:
            # a failed side may have stopped early or hit the timeout
            traced_wall += t_wall
            untraced_wall += untraced[1]
    info["trace_dump"] = _dump_spans(workload, seed, spans_all)
    metrics = summarise(spans_all, counts, lambda n: oracle.partitions(n)[n], len(records))
    metrics["trace.coverage"] = sum(s["self"] for s in spans_all) / traced_busy if traced_busy else 0.0
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1 if untraced_wall else 0.0
    return tally, _per_layer(metrics, info)


# --- common -------------------------------------------------------------------

def _per_layer(values: dict, info: dict) -> dict:
    info["layers"] = {
        name.split(".")[0]: {"self_s": values[name], "share": values[name.replace(".self_s", ".share")]}
        for name, _ in PER_LAYER
        if name.endswith(".all.self_s")
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def _read_spans(path: Path):
    """Spans and the closing meta line of one tracer dump; removes the file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    path.unlink()
    return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])


def _dump_spans(workload, seed, spans) -> str:
    path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return str(path.relative_to(ROOT))


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bellforge workload benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellforge" / "__init__.py").is_file():
        print(f"benchmark: no bellforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    probe = spawn([sys.executable, "-c", "import bellforge; print(bellforge.__file__)"], env, REQUEST_TIMEOUT_S)
    if probe[2] != 0 or not Path(probe[3].strip()).resolve().is_relative_to(ROOT / "src"):
        print(f"benchmark: bellforge does not import from {ROOT / 'src'}: {probe[4].strip()}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    info = {**provenance(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    tally, metrics = run_cli(args.workload, args.seed, args.seconds, args.trace, env, info)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info.update(
        attempted=tally.attempted,
        failed=tally.failed,
        fail_ratio=tally.failed / tally.attempted if tally.attempted else 1.0,
        failures=tally.reasons,
        result=result,
    )
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(info, indent=2) + "\n", encoding="utf-8")
    for reason in tally.reasons:
        print(f"benchmark: failed: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
