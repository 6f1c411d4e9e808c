"""wittdeg benchmark: seeded job sets through ``wittdeg.cli.run``.

    python3 bench/run.py --workload structured-q|generic|rows|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
``src`` next to this directory, so nothing needs to be installed.

Times are CPU time of the process doing the work, so time the machine
gives to other processes does not count, scaled to a reference speed by
calibration runs around each measurement (``clock.py``).  ``--trace 0`` measures the
end-to-end metrics: interpreter set-up time, then the workload's job set
three times, each in a fresh worker process, with the three runs of a job
a third of the run apart; each job's fastest time counts, which filters
out slow spells caused by other load on the machine.  ``--trace 1`` runs
each job untraced and then twice traced, and reports the per-layer metrics
and the tracing overhead (traced minus untraced time).  Both modes fail if
the worker runs disagree on any job's exit code or on a size count they
both record.  Every answer is checked by an oracle
(``oracles.py``); a wrong answer prints ``"correct": false`` and exits 1.
``--workload all`` runs every workload in both modes and prints one table.

The job set has a fixed size for a given workload and ``--seconds`` (see
``JOBS_PER_SECOND``), so two runs with the same seed do the same work and
their size counts and failure counts must agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path[:0] = [str(BENCH), str(SRC)]
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

# Job-set size per second of --seconds, in whole slot cycles.  Chosen so
# that a run takes about --seconds of wall time at the reference speed of
# clock.py; a faster program finishes the same set sooner.  For rows, six
# cycles at --seconds 20 also put the tail job (p88, rank 74 of 84) inside
# a cluster of job costs rather than at the gap between two; five cycles
# put it at a gap, and its spread over seeds doubled.
JOBS_PER_SECOND = {"structured-q": 2.8, "generic": 2.1, "rows": 4.1}
SETUP_SAMPLES = 11
# CPU time of a bare interpreter start (``python3 -c pass``) at the
# reference speed of clock.py.
BARE_START_S = 0.045
PASSES = 3
# A worker that has not answered within this many times --seconds is
# stopped and the run fails.
DEADLINE_PER_SECOND = 7

# Per-layer time metrics, in report order.
LAYER_TIMES = (
    "cli.self_s",
    "groebner.buchberger_s",
    "groebner.quotient_s",
    "groebner.normal_form_s",
    "degree.bezoutian_s",
    "degree.gram_s",
    "witt.diagonalize_s",
    "witt.invariants_s",
    "witt.is_zero_s",
    "umrow.is_unimodular_s",
)
LAYERS_FAILING = ("cli", "groebner", "degree", "witt", "umrow")
COUNT_KEYS = (
    "length",
    "gram_max_bits",
    "places",
    "cert_terms",
    "basis_size",
    "bezoutian_terms",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def job_count(workload: str, seconds: int) -> int:
    cycle = workloads.CYCLE[workload]
    return cycle * math.ceil(JOBS_PER_SECOND[workload] * seconds / cycle)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child_cpu(code: str) -> float:
    """CPU time of a fresh interpreter that runs ``code``."""
    start = _children_cpu()
    subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True)
    return _children_cpu() - start


def measure_setup() -> float:
    """Median CPU time of a fresh interpreter that imports ``wittdeg.cli``,
    in reference seconds.

    Each start is bracketed by two bare interpreter starts and scaled by
    how much slower than ``BARE_START_S`` those ran.  Start-up, like the
    import, mostly reads and unmarshals modules, and it slows with the
    load on the machine as the import does; ``clock.calibrate`` slows
    more.  Call this before any other child process is started, so that
    the CPU time of the finished children is that of these alone."""
    times = []
    for _ in range(SETUP_SAMPLES):
        before = _child_cpu("pass")
        cpu = _child_cpu("import wittdeg.cli")
        times.append(cpu * 2 * BARE_START_S / (before + _child_cpu("pass")))
    return statistics.median(times)


def run_passes(workload, seed, count, rundir: Path, modes, lag, limit) -> list[dict]:
    """Run the first ``count`` jobs once per mode (True = traced), each mode
    in its own fresh worker.  The workers take turns, one job at a time, so
    only one is busy at any moment; worker k runs ``k * lag`` jobs behind
    worker 0.  Fails if the workers take more than ``limit`` wall seconds.
    Returns per worker ``{"jobs": [...], "peak_rss_kb", "spans"}``."""
    deadline = perf_counter() + limit
    procs = []
    try:
        for k, traced in enumerate(modes):
            workdir = rundir / str(k)
            (workdir / "jobs").mkdir(parents=True)
            cmd = [
                sys.executable, str(BENCH / "worker.py"),
                "--workload", workload, "--seed", str(seed),
                "--jobdir", str(workdir / "jobs"),
            ] + (["--trace"] if traced else [])
            with open(workdir / "stderr.txt", "wb") as err:
                procs.append(subprocess.Popen(
                    cmd, env=_env(), cwd=ROOT, stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=err,
                ))
        results = [{"jobs": []} for _ in procs]
        for step in range(count + lag * (len(procs) - 1)):
            for k, (proc, result) in enumerate(zip(procs, results)):
                if 0 <= step - k * lag < count:
                    proc.stdin.write(f"{step - k * lag}\n".encode())
                    proc.stdin.flush()
                    result["jobs"].append(_reply(proc, deadline, rundir))
        for proc, result in zip(procs, results):
            proc.stdin.close()
            result.update(_reply(proc, deadline, rundir))
            proc.wait(timeout=max(deadline - perf_counter(), 1))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _reply(proc, deadline, rundir) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - perf_counter(), 0))
    line = proc.stdout.readline() if ready else b""
    if not line:
        logs = "".join(p.read_text() for p in sorted(rundir.glob("*/stderr.txt")))
        why = "timed out" if not ready else "stopped"
        raise BenchError(f"worker {why}:\n{logs}")
    return json.loads(line)


def check_answers(workload, seed, records, rundir: Path) -> None:
    """Run the oracles; raises OracleMismatch."""
    from oracles import Oracles

    by_index = {r["index"]: r for r in records}
    oracles = Oracles(str(rundir))
    seen_rows = set()
    for job in workloads.jobs(workload, seed):
        if job.index not in by_index:
            break
        if job.family == "row":
            key = (job.field, tuple(job.params["images"]))
            if key in seen_rows:
                raise BenchError(f"row input {job.index} repeats an earlier row")
            seen_rows.add(key)
        oracles.check(job, by_index[job.index], by_index)


def compare_passes(first, second) -> None:
    """Two runs of the same code and seed: exit codes, and every size count
    both runs record, must agree.  Only traced runs record basis sizes and
    Bezoutian terms."""
    for a, b in zip(first, second):
        ca, cb = job_counts(a), job_counts(b)
        if a["rc"] != b["rc"] or any(ca[k] != cb[k] for k in ca.keys() & cb.keys()):
            raise BenchError(
                f"job {a['index']}: two runs of the same code and seed disagree "
                f"(exit {a['rc']} vs {b['rc']}, counts {ca} vs {cb})"
            )


def job_counts(rec: dict) -> dict:
    counts = {k: rec[k] for k in COUNT_KEYS if k in rec}
    counts.update(rec.get("counts", {}))
    return counts


# -- metrics ---------------------------------------------------------------


def percentile(ranked: list, pct: int) -> float:
    """Nearest-rank percentile: the value at rank ceil(pct * n / 100).

    No interpolation, so the median stays a success whenever at least half
    of the jobs succeed, as the F_p half of ``generic`` always does."""
    return ranked[max(math.ceil(pct * len(ranked) / 100), 1) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten jobs beyond it (>= 50)."""
    for pct in range(99, 49, -1):
        if n - math.ceil(pct * n / 100) >= 10:
            return pct
    return 50


def end_to_end(records, setup_s, peak_rss_kb):
    """Failed jobs rank after every success and are charged the time of
    the whole job set: they got no answer within the run."""
    total = sum(r["seconds"] for r in records)
    ok = [r["seconds"] for r in records if r["rc"] == 0]
    ranked = sorted(ok) + [total] * (len(records) - len(ok))
    pct = tail_percentile(len(ranked))
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_ok_per_s": (len(ok) / total, "1/s"),
        "job_p50_s": (percentile(ranked, 50), "s"),
        "job_tail_s": (percentile(ranked, pct), "s"),
        "ok_frac": (len(ok) / len(records), "frac"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    notes = [
        f"job_tail_s is p{pct} of {len(ranked)} jobs",
        f"failed_frac = {(len(records) - len(ok)) / len(records):.4f}",
        f"job set time {total:.3f} s",
    ]
    return metrics, notes


def per_layer(spans, records, untraced_s):
    """Span times are scaled to reference seconds by their job's factor."""
    factor = {r["index"]: r["scale"] for r in records}
    dur: dict = {}
    own: dict = {}
    for (name, start, end, _, job), self_t in zip(spans, self_times(spans)):
        dur[name] = dur.get(name, 0.0) + (end - start) * factor[job]
        own[name] = own.get(name, 0.0) + self_t * factor[job]
    gram_nf = sum(
        (end - start) * factor[job]
        for name, start, end, parent, job in spans
        if name == "groebner.normal_form"
        and parent is not None
        and spans[parent][0] == "degree.degree_of"
    )
    d = dur.get
    times = {
        "cli.self_s": own.get("cli.run", 0.0),
        "groebner.buchberger_s": d("groebner.buchberger", 0.0),
        "groebner.quotient_s": d("groebner.standard_monomials", 0.0)
        + d("groebner.supported_only_at_origin", 0.0),
        "groebner.normal_form_s": d("groebner.normal_form", 0.0),
        "degree.bezoutian_s": d("degree.bezoutian", 0.0),
        "degree.gram_s": own.get("degree.degree_of", 0.0) + gram_nf,
        "witt.diagonalize_s": d("witt.diagonalize", 0.0),
        "witt.invariants_s": d("witt.invariants", 0.0),
        "witt.is_zero_s": own.get("witt.is_witt_zero", 0.0),
        "umrow.is_unimodular_s": d("umrow.is_unimodular", 0.0),
    }
    run_s = d("cli.run", 0.0)
    metrics = {"cli.run_s": (run_s, "s")}
    for name in LAYER_TIMES:
        metrics[name] = (times[name], "s")
    for name in LAYER_TIMES:
        metrics[name[:-2] + "_share"] = (times[name] / run_s, "frac")
    counts = [job_counts(r) for r in records]

    def total(key):
        return sum(c.get(key, 0) for c in counts)

    metrics["quotient.length"] = (total("length"), "count")
    metrics["groebner.basis_size"] = (total("basis_size"), "count")
    metrics["degree.bezoutian_terms"] = (total("bezoutian_terms"), "count")
    metrics["degree.gram_max_bits"] = (
        max((c.get("gram_max_bits", 0) for c in counts), default=0),
        "count",
    )
    metrics["witt.places"] = (total("places"), "count")
    metrics["umrow.cert_terms"] = (total("cert_terms"), "count")
    for layer in LAYERS_FAILING:
        n = sum(1 for r in records if r["rc"] != 0 and r["stage"].startswith(layer + "."))
        metrics[f"{layer}.failed"] = (n, "count")
    metrics["trace.overhead_s"] = (run_s - untraced_s, "s")
    return metrics


def failure_lines(records) -> list[str]:
    groups: dict = {}
    for r in records:
        if r["rc"] != 0:
            key = (r["rc"], r["error"], r.get("stage", "an untraced call"))
            groups[key] = groups.get(key, 0) + 1
    return [
        f"failed: {n} job(s) exit {rc} {err} raised in {stage}"
        for (rc, err, stage), n in sorted(groups.items())
    ]


# -- running workloads -----------------------------------------------------


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list]:
    """Returns (result object, human-readable lines)."""
    count = job_count(workload, seconds)
    OUT.mkdir(exist_ok=True)
    rundir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    try:
        if not trace:
            setup_s = measure_setup()
        # The repeats of a job run a third of the run apart, so a slow spell
        # of the machine rarely covers all three; the untraced and traced
        # runs of a job run back to back, so the overhead compares like
        # with like.  Two traced runs let their traced-only counts be
        # compared too.
        limit = DEADLINE_PER_SECOND * seconds
        if trace:
            modes, lag = [False, True, True], 0
        else:
            modes, lag = [False] * PASSES, math.ceil(count / PASSES)
        passes = run_passes(workload, seed, count, rundir, modes, lag, limit)
        for a, b in zip(passes, passes[1:]):
            compare_passes(a["jobs"], b["jobs"])
        first, last = passes[0], passes[-1]
        if trace:
            records = last["jobs"]
        else:
            records = [
                dict(recs[0], seconds=min(r["seconds"] for r in recs))
                for recs in zip(*(p["jobs"] for p in passes))
            ]
        from oracles import OracleMismatch

        try:
            check_answers(workload, seed, records, rundir)
            correct = True
        except OracleMismatch as exc:
            print(f"oracle mismatch: {exc}", file=sys.stderr)
            correct = False
        lines = [f"workload {workload}, seed {seed}, {len(records)} jobs"]
        if trace:
            untraced = sum(r["seconds"] for r in first["jobs"])
            metrics = per_layer(last["spans"], records, untraced)
            trace_path = OUT / f"trace-{workload}-{seed}.json"
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(
                    {"fields": ["name", "start", "end", "parent", "job"],
                     "spans": last["spans"]},
                    fh,
                )
            lines.append(
                f"tracing overhead: traced {metrics['cli.run_s'][0]:.3f} s - "
                f"untraced {untraced:.3f} s = {metrics['trace.overhead_s'][0]:.3f} s"
            )
            lines.append(
                f"{len(last['spans'])} spans written to "
                f"{trace_path.relative_to(ROOT)}"
            )
            lines.append(
                "no wait metrics: the program has no queue, lock or thread"
            )
        else:
            peak_kb = max(p["peak_rss_kb"] for p in passes)
            metrics, notes = end_to_end(records, setup_s, peak_kb)
            lines += notes
        lines += failure_lines(records)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:28s} {value:>14.6g} {unit}")
    obj = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["rc"] != 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return obj, lines


def run_all(seed: int, seconds: int) -> int:
    """Every workload in both modes, each in its own process."""
    summary = {}
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            summary[f"{workload}/trace{trace}"] = json.loads(
                proc.stdout.strip().splitlines()[-1]
            )
    print(json.dumps(summary))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",)
    )
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "wittdeg" / "cli.py").is_file():
        print(f"error: no wittdeg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        obj, lines = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(obj))
    return 0 if obj["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
