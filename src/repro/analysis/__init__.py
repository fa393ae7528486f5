"""Static invariant analysis for the reproduction's correctness contracts.

Every guarantee the project makes — bit-identical backends, byte-identical
``repro paper`` re-runs, crash-recoverable sweeps that resume to the same
bytes — rests on invariants that code review alone cannot police at scale.
This package encodes them as an AST-based analysis engine with pluggable
rules, exposed as the ``repro lint`` CLI subcommand and run in CI on every
change:

* **RPR001 determinism** — wall-clock reads, ambient entropy, unseeded
  global RNGs and hash-seed-dependent set iteration must not reach
  result-producing code (:mod:`repro.analysis.rules.determinism`).
* **RPR002 spec-hash hygiene** — every field of a ``*Spec`` dataclass is
  either part of its canonical ``as_dict()``/``spec_hash()`` form or
  explicitly allowed as execution-only plumbing
  (:mod:`repro.analysis.rules.spec_hash`).
* **RPR003 fork/async safety** — no mutation of module-level mutable
  state in the sweep/serve layers, no blocking calls inside ``async def``
  (:mod:`repro.analysis.rules.concurrency`).
* **RPR004** — retired (kernel parity between the pure-Python and C
  kernel translations; the C kernel is now the only one).  Rule IDs
  are never reused.
* **RPR005 warning/exception hygiene** — no bare ``except``, no
  category-less ``warnings.warn``, no blanket warning suppression
  (:mod:`repro.analysis.rules.hygiene`).

Findings are suppressed inline with ``# repro: allow[RPR001]`` pragmas
(same line or the comment line directly above) or grandfathered through a
committed JSON baseline (:mod:`repro.analysis.baseline`).  Reporters
render text, JSON and SARIF 2.1.0 (:mod:`repro.analysis.report`).
"""

from repro.analysis.baseline import Baseline
from repro.analysis.engine import LintReport, collect_files, run_lint
from repro.analysis.finding import PARSE_ERROR_RULE_ID, Finding
from repro.analysis.report import render_json, render_sarif, render_text
from repro.analysis.rules import RULES, get_rules, rule_ids
from repro.analysis.source import SourceFile

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "PARSE_ERROR_RULE_ID",
    "RULES",
    "SourceFile",
    "collect_files",
    "get_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "run_lint",
]
