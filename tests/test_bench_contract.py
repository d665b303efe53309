"""The benchmark in perfbench/ still fits the program.

The traced run wraps named functions and methods of brakeindex, and the
workloads call the library and the CLI with fixed arguments.  A rename
or a dropped keyword breaks the benchmark without breaking any other
test, so both are checked here; nothing is timed and no job is run.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

from brakeindex.cli import validate  # noqa: E402


def test_every_spanned_and_counted_name_resolves():
    # install() looks every listed name up and fails on a missing one
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer._patches) >= len(spans.SPANNED) + len(spans.COUNTED)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", ["flow", "paths", "orbit"])
def test_cycle_jobs_build_valid_documents(workload):
    jobs = workloads.cycle_jobs(workload, 0, 0)
    assert jobs
    for job in jobs:
        if job.command is None:
            assert callable(job.payload)
        else:
            assert validate(job.command, json.loads(job.payload)) == [], job.slot
