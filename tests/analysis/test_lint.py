"""The repo-invariant AST lint: clean on the repo, loud on fixtures."""

from pathlib import Path

from repro.analysis.lint import RULES, main, run_lint

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src"

#: Expected (rule, fixture file) pairs — one seeded fixture per rule, two for
#: thread-confinement (threads; fork and shared mappings).
EXPECTED = {
    ("native-confinement", "bad_ctypes.py"),
    ("dtype-width", "bad_dtype.py"),
    ("bufferpool-escape", "bad_pool.py"),
    ("mutable-default", "bad_default.py"),
    ("thread-confinement", "bad_threading.py"),
    ("thread-confinement", "bad_fork.py"),
    ("request-waited", "bad_request.py"),
    ("tag-registry", "bad_tag.py"),
}


def test_repo_is_clean():
    """Acceptance: `python -m repro.analysis.lint src/` exits 0."""
    assert run_lint([SRC]) == []
    assert main([str(SRC)]) == 0


def test_every_rule_fires_on_its_fixture():
    violations = run_lint([FIXTURES])
    found = {(v.rule, v.path.name) for v in violations}
    assert found == EXPECTED


def test_cli_exits_nonzero_on_fixtures(capsys):
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    for rule, fname in EXPECTED:
        assert rule in out
        assert fname in out


def test_escape_hatch_waives_only_named_rule():
    waived = FIXTURES / "repro" / "core" / "waived.py"
    assert run_lint([waived]) == []
    # the same violation without the allow comment is reported
    bad = FIXTURES / "repro" / "core" / "bad_dtype.py"
    assert [v.rule for v in run_lint([bad])] == ["dtype-width"]


def test_cli_exits_nonzero_on_missing_path(capsys):
    """A named path that does not exist is a usage error, not a clean run."""
    assert main(["does/not/exist"]) == 2
    err = capsys.readouterr().err
    assert "does/not/exist" in err
    assert "does not exist" in err


def test_cli_missing_path_reported_even_with_valid_paths(capsys):
    """One bad path taints the run even if other paths lint clean."""
    assert main([str(SRC), "no/such/dir"]) == 2
    captured = capsys.readouterr()
    assert "no/such/dir" in captured.err


def test_cli_exits_nonzero_when_no_files_matched(tmp_path, capsys):
    """An existing directory with no Python files lints nothing — error."""
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty)]) == 2
    assert "no Python files" in capsys.readouterr().err


def test_cli_reports_unparsable_file(tmp_path, capsys):
    """A syntax error is reported as a skip and fails the run."""
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    assert main([str(bad)]) == 2
    err = capsys.readouterr().err
    assert "broken.py" in err
    assert "skipped" in err


def test_rule_catalog_documented(capsys):
    """Every rule has a non-trivial rationale, printed by --list-rules."""
    for rule in RULES:
        assert len(rule.rationale) > 40, rule.name
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.name in out


def test_violations_carry_location():
    violations = run_lint([FIXTURES / "repro" / "core" / "bad_dtype.py"])
    assert len(violations) == 1
    v = violations[0]
    assert v.line > 0
    assert "bad_dtype.py" in str(v)
    assert "dtype-width" in str(v)
