"""Tests for ``repro.analysis``: the lint framework, each rule family's
fixtures, the suppression grammar, and the ``repro lint`` CLI.

The fixture files under ``tests/fixtures/lint/`` are parsed, never
imported.  Violation fixtures carry trailing ``# expect: RPRxxx``
markers naming the finding that must fire on that line; clean fixtures
must produce no findings at all.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.cli
from repro.analysis import (
    all_rules,
    format_suppression,
    lint_paths,
    lint_source,
    parse_suppression,
)
from repro.analysis.framework import JSON_SCHEMA_VERSION

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(RPR\d{3})")


def expected_findings(path: Path) -> list[tuple[int, str]]:
    """(line, code) pairs declared by ``# expect:`` markers in a fixture."""
    out = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        for m in _EXPECT_RE.finditer(text):
            out.append((lineno, m.group(1)))
    return sorted(out)


def findings_of(path: Path, **kw) -> list[tuple[int, str]]:
    found = lint_source(path.read_text(), path, **kw)
    return sorted((f.line, f.code) for f in found)


# ----------------------------------------------------------------------
# rule families against their fixtures
# ----------------------------------------------------------------------
VIOLATION_FIXTURES = [
    "core/dtype_violations.py",
    "core/kernel_loop_violations.py",
    "engine/lock_violations.py",
    "engine/durability_violations.py",
    "serve/async_violations.py",
    "net/async_violations.py",
    "replica/artifact_read_violations.py",
]
CLEAN_FIXTURES = [
    "core/dtype_clean.py",
    "core/kernel_loop_clean.py",
    "engine/lock_clean.py",
    "engine/durability_clean.py",
    "serve/async_clean.py",
    "replica/artifact_read_clean.py",
]


@pytest.mark.parametrize("rel", VIOLATION_FIXTURES)
def test_violation_fixture_detected_exactly(rel):
    path = FIXTURES / rel
    expected = expected_findings(path)
    assert expected, f"fixture {rel} declares no # expect: markers"
    assert findings_of(path) == expected


@pytest.mark.parametrize("rel", CLEAN_FIXTURES)
def test_clean_fixture_produces_no_findings(rel):
    path = FIXTURES / rel
    assert findings_of(path) == []


def test_every_rule_family_has_fixture_coverage():
    """Each registered non-meta rule prefix appears in some fixture."""
    covered = set()
    for rel in VIOLATION_FIXTURES:
        covered.update(code for _, code in expected_findings(FIXTURES / rel))
    families = {code[:5] for code in covered}  # RPR10, RPR20, ...
    for code in all_rules():
        assert code[:5] in families, f"no fixture exercises {code}"


# ----------------------------------------------------------------------
# suppression grammar
# ----------------------------------------------------------------------
def test_suppression_fixture_semantics():
    # expectations are hardcoded here (not # expect: markers) because the
    # markers would collide with the suppression comments under test
    path = FIXTURES / "core" / "suppressions.py"
    assert findings_of(path) == [
        (14, "RPR002"),   # bare noqa without a reason: rejected...
        (14, "RPR101"),   # ...so the underlying finding still fires
        (19, "RPR003"),   # unused suppression
    ]


def test_parse_suppression_accepts_separator_variants():
    for sep in ("—", "–", "--", "-", ":"):
        sup = parse_suppression(f"x = 1  # repro: noqa[RPR101] {sep} why")
        assert sup is not None and sup.valid
        assert sup.codes == ("RPR101",) and sup.reason == "why"


def test_parse_suppression_rejects_bad_codes():
    sup = parse_suppression("x  # repro: noqa[RPR1] — too short")
    assert sup is not None and not sup.valid
    assert parse_suppression("x = 1  # plain comment") is None


_CODES = st.lists(st.from_regex(r"RPR\d{3}", fullmatch=True),
                  min_size=1, max_size=4, unique=True)
_REASONS = (
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
        min_size=1, max_size=60)
    .map(str.strip)
    .filter(bool)
)


@given(codes=_CODES, reason=_REASONS)
def test_suppression_round_trips_through_formatter(codes, reason):
    sup = parse_suppression("x = 1  " + format_suppression(codes, reason))
    assert sup is not None and sup.valid
    assert sup.codes == tuple(codes)
    assert sup.reason == reason


# ----------------------------------------------------------------------
# select / ignore
# ----------------------------------------------------------------------
def test_select_restricts_to_listed_codes():
    path = FIXTURES / "core" / "dtype_violations.py"
    only = findings_of(path, select=["RPR101"])
    assert only and all(code == "RPR101" for _, code in only)


def test_ignore_accepts_prefixes():
    path = FIXTURES / "core" / "dtype_violations.py"
    assert findings_of(path, ignore=["RPR1"]) == []


def test_artifact_read_rules_apply_outside_engine_and_replica():
    """RPR601/602 used to be scoped to engine/ + replica/, which is how
    core/serialize.py's bare np.load / json.loads went unseen."""
    source = (FIXTURES / "replica" / "artifact_read_violations.py").read_text()
    for where in ("src/repro/core/serialize.py", "src/repro/cli.py"):
        found = lint_source(source, Path(where), select=["RPR6"])
        assert {f.code for f in found} == {"RPR601", "RPR602"}, where


# ----------------------------------------------------------------------
# self-check: the project's own sources must lint clean
# ----------------------------------------------------------------------
def test_repo_sources_lint_clean():
    report = lint_paths([REPO / "src"])
    assert report.files_scanned > 50
    offenders = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"repro lint src found:\n{offenders}"


# ----------------------------------------------------------------------
# CLI: exit codes, JSON schema, statistics
# ----------------------------------------------------------------------
def test_cli_exit_codes(capsys):
    clean = str(FIXTURES / "core" / "dtype_clean.py")
    dirty = str(FIXTURES / "core" / "dtype_violations.py")
    assert repro.cli.main(["lint", clean]) == 0
    assert repro.cli.main(["lint", dirty]) == 1
    assert repro.cli.main(["lint", str(FIXTURES / "nope.py")]) == 2
    capsys.readouterr()


def test_cli_json_schema_is_stable(capsys):
    dirty = str(FIXTURES / "core" / "dtype_violations.py")
    assert repro.cli.main(["lint", dirty, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert set(payload) == {"version", "files_scanned", "clean",
                            "findings", "statistics"}
    assert payload["files_scanned"] == 1 and payload["clean"] is False
    for finding in payload["findings"]:
        assert list(finding) == ["code", "rule", "path", "line",
                                 "col", "message"]
    total = sum(payload["statistics"].values())
    assert total == len(payload["findings"]) > 0


def test_cli_statistics_table(capsys):
    dirty = str(FIXTURES / "core" / "dtype_violations.py")
    assert repro.cli.main(["lint", dirty, "--statistics"]) == 1
    out = capsys.readouterr().out
    assert "findings by rule" in out
    assert "RPR101" in out


def test_cli_select_ignore(capsys):
    dirty = str(FIXTURES / "core" / "dtype_violations.py")
    assert repro.cli.main(["lint", dirty, "--select", "RPR999"]) == 0
    assert repro.cli.main(["lint", dirty, "--ignore", "RPR1"]) == 0
    capsys.readouterr()
