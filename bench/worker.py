"""Run one workload's jobs through ``wittdeg.cli.run`` in this process.

Started by ``run.py`` as a fresh interpreter with ``src`` on PYTHONPATH, so
the program is imported once and every job is an in-process call, as a
long-lived caller would make it.  Only the ``cli.run`` call is timed;
writing the job files and summarizing the output happen between timings.
Times are CPU time of this single-threaded process (``process_time``), so
time the machine gives to other processes does not count, scaled to a
reference speed by the calibration runs just before and after the call
(``clock.py``).

    python3 bench/worker.py --workload W --seed N --jobdir D [--trace]

Each line on standard input is the index of the next job of the stream;
the worker runs it and answers with one JSON record.  At end of input it
writes a last line with its peak RSS and, when traced, every span.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import process_time

import workloads
from clock import calibrate, scale
from tracer import Tracer


def _bits(text: str) -> int:
    num, _, den = text.partition("/")
    return max(int(num).bit_length(), int(den or "1").bit_length())


def _summary(job, report: dict) -> dict:
    """The parts of the program's JSON output the oracles and counts use."""
    if job.family == "row":
        cert = report.get("certificate")
        return {"unimodular": report["unimodular"], "certificate": cert}
    return {
        "length": report["length"],
        "rank": report["rank"],
        "signature": report["signature"],
        "signed_discriminant": report["signed_discriminant"],
        "diagonal": report["diagonal"],
        "places": len(report["hasse"]),
        "gram_max_bits": max(
            (_bits(x) for row in report["gram"] for x in row), default=0
        ),
    }


def _error(stderr: str) -> str:
    """Exception class from the CLI's ``error: <Class>: <message>`` line."""
    for line in stderr.splitlines():
        if line.startswith("error: "):
            return line[len("error: "):].split(":", 1)[0]
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobdir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from wittdeg import cli

    run = cli.run
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.run", cli.run)

    reply = sys.stdout
    stream = workloads.jobs(args.workload, args.seed)
    for line in sys.stdin:
        job = next(stream)
        if job.index != int(line):
            raise SystemExit(f"asked for job {line.strip()}, next is {job.index}")
        paths = {}
        for key, text in job.files.items():
            paths[key] = os.path.join(args.jobdir, f"{job.index}.{key}")
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [a.format(**paths) for a in job.argv]
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_job(job.index)
        before = calibrate()
        start = process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        seconds = process_time() - start
        factor = scale(before, calibrate())
        rec = {"index": job.index, "rc": rc, "seconds": seconds * factor}
        rec["scale"] = factor
        if rc == 0:
            rec.update(_summary(job, json.loads(out.getvalue())))
        else:
            rec["error"] = _error(err.getvalue())
        if tracer:
            counts, raised = tracer.end_job()
            rec["counts"] = counts
            if rc != 0:
                rec["stage"] = raised or "cli.run"
        del out, err
        reply.write(json.dumps(rec) + "\n")
        reply.flush()

    final = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
    }
    reply.write(json.dumps(final) + "\n")
    reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
