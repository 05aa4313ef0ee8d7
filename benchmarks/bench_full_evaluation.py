"""The whole evaluation, as ``python -m repro`` prints it.

Tables 4.1, 7.1, 8.1, 8.2, 9.1 and 10.1, Figures 9.1-9.3, the Chapter 8
PoC matrix and the Section 9.2 sensitivity analyses, at the paper's
configuration (``run_full_evaluation()``) and in report order.  Several
sections appear in no other artifact: Figures 9.2 and 9.3 over every
scheme, the three-scheme PoC matrix and the report-format sensitivity
sections.
"""

from __future__ import annotations

from conftest import run_once

from repro.eval.report import run_full_evaluation


def test_full_evaluation(benchmark, emit):
    artifacts = run_once(benchmark, run_full_evaluation)
    emit(artifacts.render())
