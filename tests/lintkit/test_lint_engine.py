"""Framework-level tests: suppressions, meta findings, the registry."""

from __future__ import annotations

import textwrap

from repro.lintkit import (
    BAD_SUPPRESSION,
    RULES,
    UNKNOWN_SUPPRESSION,
    lint_sources,
    rule_ids,
)

PATH = "src/repro/analysis/example.py"

RNG_LINE = "values = np.random.normal(size=8)"


def lint_one(code):
    return lint_sources({PATH: textwrap.dedent(code)})


class TestSuppressions:
    def test_allow_with_reason_filters_the_finding(self):
        findings = lint_one(
            f"""
            import numpy as np

            {RNG_LINE}  # lint: allow[RL102] fixture demonstrates the bias
            """
        )
        assert findings == []

    def test_reasonless_allow_is_itself_a_finding(self):
        findings = lint_one(
            f"""
            import numpy as np

            {RNG_LINE}  # lint: allow[RL102]
            """
        )
        rules = sorted(f.rule for f in findings)
        # the suppression is rejected (RL001) AND the finding still fails
        assert rules == [BAD_SUPPRESSION, "RL102"]
        meta = next(f for f in findings if f.rule == BAD_SUPPRESSION)
        assert "reason" in meta.message

    def test_unknown_rule_id_is_a_finding(self):
        findings = lint_one(
            f"""
            import numpy as np

            {RNG_LINE}  # lint: allow[RL999] typo'd id
            """
        )
        rules = sorted(f.rule for f in findings)
        assert rules == [UNKNOWN_SUPPRESSION, "RL102"]

    def test_allow_only_covers_the_named_rule(self):
        findings = lint_one(
            f"""
            import numpy as np

            {RNG_LINE}  # lint: allow[RL101] wrong rule named
            """
        )
        assert [f.rule for f in findings] == ["RL102"]

    def test_allow_covers_multiple_ids(self):
        findings = lint_one(
            """
            import numpy as np
            import time

            x = np.random.normal(time.time())  # lint: allow[RL101, RL102] fixture
            """
        )
        assert findings == []

    def test_meta_findings_are_not_suppressible(self):
        findings = lint_one(
            """
            x = 1  # lint: allow[RL001] attempting to hide the meta finding
            """
        )
        assert [f.rule for f in findings] == [UNKNOWN_SUPPRESSION]
        assert "cannot be suppressed" in findings[0].message


class TestDriver:
    def test_syntax_error_yields_rl000_not_a_crash(self):
        findings = lint_one(
            """
            def broken(:
                pass
            """
        )
        assert [f.rule for f in findings] == ["RL000"]
        assert "syntax error" in findings[0].message

    def test_findings_are_sorted_and_located(self):
        findings = lint_one(
            """
            import numpy as np

            b = np.random.normal(size=2)
            a = np.random.random()
            """
        )
        assert [f.rule for f in findings] == ["RL102", "RL102"]
        assert findings[0].line < findings[1].line
        assert findings[0].location() == f"{PATH}:{findings[0].line}:5"

    def test_multiple_files_lint_in_one_call(self):
        findings = lint_sources(
            {
                "src/repro/a.py": "import numpy as np\nnp.random.seed(0)\n",
                "src/repro/b.py": "x = 1\n",
            }
        )
        assert [(f.path, f.rule) for f in findings] == [
            ("src/repro/a.py", "RL102")
        ]


class TestRegistry:
    def test_all_eight_rules_registered(self):
        assert sorted(RULES) == [
            "RL101",
            "RL102",
            "RL103",
            "RL104",
            "RL105",
            "RL106",
            "RL107",
            "RL108",
        ]

    def test_rule_ids_includes_meta_ids(self):
        ids = rule_ids()
        assert BAD_SUPPRESSION in ids
        assert UNKNOWN_SUPPRESSION in ids

    def test_every_rule_documents_itself(self):
        for rule in RULES.values():
            assert rule.name, rule.id
            assert rule.summary, rule.id
            assert rule.rationale(), rule.id
            assert rule.ok_example, rule.id
            assert rule.bad_example, rule.id
