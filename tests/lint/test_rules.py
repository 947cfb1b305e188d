"""Every shipped rule fires on a known-bad fragment and stays silent on a
known-good one, at the expected location."""

import textwrap

import pytest

from repro.lint import RepoContext, lint_source


def run(source, relpath="src/repro/pkg/mod.py", context=None, in_package=True):
    return lint_source(
        textwrap.dedent(source),
        relpath=relpath,
        context=context,
        in_package=in_package,
    )


def rule_lines(findings, rule_id):
    return [f.line for f in findings if f.rule_id == rule_id and not f.suppressed]


# ----------------------------------------------------------------------
# DET001 — unseeded randomness
# ----------------------------------------------------------------------
class TestDET001:
    def test_fires_on_stdlib_random(self):
        findings = run(
            """\
            import random

            def jitter():
                return random.random()
            """
        )
        assert rule_lines(findings, "DET001") == [4]

    def test_fires_on_from_import(self):
        findings = run(
            """\
            from random import shuffle as sh

            def scramble(xs):
                sh(xs)
            """
        )
        assert rule_lines(findings, "DET001") == [4]

    def test_fires_on_legacy_numpy_global(self):
        findings = run(
            """\
            import numpy as np

            def draw():
                return np.random.normal(size=3)
            """
        )
        assert rule_lines(findings, "DET001") == [4]

    def test_fires_on_argless_default_rng(self):
        findings = run(
            """\
            import numpy as np
            from numpy.random import default_rng

            a = np.random.default_rng()
            b = default_rng()
            """
        )
        assert rule_lines(findings, "DET001") == [4, 5]

    def test_silent_on_seeded_generator(self):
        findings = run(
            """\
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.normal(size=3)
            """
        )
        assert rule_lines(findings, "DET001") == []

    def test_silent_on_unrelated_module_named_random(self):
        findings = run(
            """\
            import numpy as np

            x = np.random.Generator
            """
        )
        assert rule_lines(findings, "DET001") == []


# ----------------------------------------------------------------------
# DET002 — set iteration
# ----------------------------------------------------------------------
class TestDET002:
    def test_fires_on_set_call(self):
        findings = run(
            """\
            def total(xs):
                acc = 0.0
                for x in set(xs):
                    acc += x
                return acc
            """
        )
        assert rule_lines(findings, "DET002") == [3]

    def test_fires_on_set_literal_and_comprehension(self):
        findings = run(
            """\
            def f(xs):
                out = [x for x in {1, 2, 3}]
                for y in {x * 2 for x in xs}:
                    out.append(y)
                return out
            """
        )
        assert rule_lines(findings, "DET002") == [2, 3]

    def test_fires_through_order_preserving_wrappers(self):
        findings = run(
            """\
            def f(xs):
                for i, x in enumerate(list(set(xs))):
                    yield i, x
            """
        )
        assert rule_lines(findings, "DET002") == [2]

    def test_silent_when_sorted(self):
        findings = run(
            """\
            def f(xs):
                for x in sorted(set(xs)):
                    yield x
                for y in reversed(sorted({1, 2})):
                    yield y
            """
        )
        assert rule_lines(findings, "DET002") == []


# ----------------------------------------------------------------------
# NUM001 — float equality
# ----------------------------------------------------------------------
class TestNUM001:
    def test_fires_on_float_literal_equality(self):
        findings = run(
            """\
            def f(x):
                return x == 0.5
            """
        )
        assert rule_lines(findings, "NUM001") == [2]

    def test_fires_on_division_and_float_call(self):
        findings = run(
            """\
            def f(a, b, c):
                bad1 = (a / b) != c
                bad2 = float(a) == b
                return bad1, bad2
            """
        )
        assert rule_lines(findings, "NUM001") == [2, 3]

    def test_silent_on_int_and_ordering_comparisons(self):
        findings = run(
            """\
            def f(x, y):
                return x == 2 and y >= 0.5 and x != y
            """
        )
        assert rule_lines(findings, "NUM001") == []


# ----------------------------------------------------------------------
# NUM002 — swallowed errors in numeric kernels
# ----------------------------------------------------------------------
class TestNUM002:
    BAD = """\
        def f():
            try:
                return 1.0
            except Exception:
                return None
    """

    def test_fires_in_kernel_dirs(self):
        for relpath in (
            "src/repro/ml/kernel.py",
            "src/repro/wireless/phy.py",
            "src/repro/qoe/iqx.py",
        ):
            findings = run(self.BAD, relpath=relpath)
            assert rule_lines(findings, "NUM002") == [4], relpath

    def test_fires_on_bare_except(self):
        findings = run(
            """\
            def f():
                try:
                    return 1.0
                except:
                    pass
            """,
            relpath="src/repro/ml/kernel.py",
        )
        assert rule_lines(findings, "NUM002") == [4]

    def test_silent_outside_kernel_dirs(self):
        findings = run(self.BAD, relpath="src/repro/testbed/lte_testbed.py")
        assert rule_lines(findings, "NUM002") == []

    def test_silent_when_handler_reraises(self):
        findings = run(
            """\
            def f():
                try:
                    return 1.0
                except Exception as exc:
                    raise RuntimeError("kernel failed") from exc
            """,
            relpath="src/repro/ml/kernel.py",
        )
        assert rule_lines(findings, "NUM002") == []

    def test_silent_on_specific_exception(self):
        findings = run(
            """\
            def f():
                try:
                    return 1.0
                except ZeroDivisionError:
                    return 0.0
            """,
            relpath="src/repro/ml/kernel.py",
        )
        assert rule_lines(findings, "NUM002") == []


# ----------------------------------------------------------------------
# API001 — __all__ hygiene
# ----------------------------------------------------------------------
class TestAPI001:
    def test_fires_on_missing_dunder_all(self):
        findings = run(
            """\
            def helper():
                return 1
            """
        )
        assert rule_lines(findings, "API001") == [1]

    def test_fires_on_undefined_listed_name(self):
        findings = run(
            """\
            __all__ = ["ghost"]
            """
        )
        assert rule_lines(findings, "API001") == [1]

    def test_fires_on_unlisted_public_def(self):
        findings = run(
            """\
            __all__ = ["listed"]

            def listed():
                return 1

            def unlisted():
                return 2
            """
        )
        assert rule_lines(findings, "API001") == [6]

    def test_silent_on_consistent_module(self):
        findings = run(
            """\
            __all__ = ["Thing", "make"]

            class Thing:
                pass

            def make():
                return Thing()

            def _private():
                return None
            """
        )
        assert rule_lines(findings, "API001") == []

    def test_silent_on_test_files_and_scripts(self):
        bad = "def helper():\n    return 1\n"
        assert rule_lines(run(bad, relpath="tests/x/test_mod.py"), "API001") == []
        assert rule_lines(run(bad, relpath="tests/x/conftest.py"), "API001") == []
        assert (
            rule_lines(
                run(bad, relpath="examples/demo.py", in_package=False), "API001"
            )
            == []
        )

    def test_silent_on_dynamic_dunder_all(self):
        findings = run(
            """\
            __all__ = []
            __all__ += ["whatever"]

            def helper():
                return 1
            """
        )
        assert rule_lines(findings, "API001") == []


# ----------------------------------------------------------------------
# API002 — mutable defaults
# ----------------------------------------------------------------------
class TestAPI002:
    def test_fires_on_literal_and_constructor_defaults(self):
        findings = run(
            """\
            def f(a, xs=[], mapping=dict(), *, tags=None, seen=set()):
                return a
            """
        )
        assert rule_lines(findings, "API002") == [1, 1, 1]

    def test_fires_on_lambda_default(self):
        findings = run("g = lambda xs={}: xs\n__all__ = ['g']\n")
        assert rule_lines(findings, "API002") == [1]

    def test_silent_on_none_and_immutable_defaults(self):
        findings = run(
            """\
            def f(a=None, b=(), c=1.5, d="x", e=frozenset()):
                return a, b, c, d, e
            """
        )
        assert rule_lines(findings, "API002") == []


# ----------------------------------------------------------------------
# DOC001 — paper references vs docs/paper_mapping.md
# ----------------------------------------------------------------------
class TestDOC001:
    CONTEXT = RepoContext(
        root="/repo",
        mapping_path="/repo/docs/paper_mapping.md",
        figures=frozenset({"2", "3", "7", "8"}),
        sections=frozenset({"4.1", "4.2", "6"}),
    )

    def test_fires_on_unknown_figure(self):
        findings = run(
            '''\
            """Implements Figure 99 of the paper."""
            ''',
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "DOC001") == [1]

    def test_fires_on_unknown_section_in_function_docstring(self):
        findings = run(
            '''\
            def f():
                """Wrong.

                See §9.9 for details.
                """
            ''',
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "DOC001") == [4]

    def test_silent_on_known_references(self):
        findings = run(
            '''\
            """Reproduces Figure 3 and Figures 7-8 (see §4.1, Section 6)."""
            ''',
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "DOC001") == []

    def test_section_prefix_matching(self):
        # §4 is covered because §4.1 is catalogued; §6.2 by §6.
        findings = run(
            '''\
            """See §4 and §6.2."""
            ''',
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "DOC001") == []

    def test_silent_without_mapping_file(self):
        findings = run(
            '''\
            """Implements Figure 99."""
            ''',
            context=RepoContext(),
        )
        assert rule_lines(findings, "DOC001") == []

    def test_references_in_comments_are_ignored(self):
        findings = run(
            """\
            x = 1  # see Figure 99
            __all__ = ["x"]
            """,
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "DOC001") == []


# ----------------------------------------------------------------------
# OBS001 — bare print() in library code
# ----------------------------------------------------------------------
class TestOBS001:
    BAD = """\
        def report(x):
            print(x)
        __all__ = ["report"]
        """

    def test_fires_in_library_module(self):
        findings = run(self.BAD, relpath="src/repro/core/mod.py")
        assert rule_lines(findings, "OBS001") == [2]

    def test_silent_in_cli_module(self):
        findings = run(self.BAD, relpath="src/repro/obs/cli.py")
        assert rule_lines(findings, "OBS001") == []

    def test_silent_in_textplot(self):
        findings = run(self.BAD, relpath="src/repro/experiments/textplot.py")
        assert rule_lines(findings, "OBS001") == []

    def test_silent_in_lint_package(self):
        findings = run(self.BAD, relpath="src/repro/lint/reporters.py")
        assert rule_lines(findings, "OBS001") == []

    def test_silent_outside_library_tree(self):
        findings = run(self.BAD, relpath="examples/demo.py", in_package=False)
        assert rule_lines(findings, "OBS001") == []
        findings = run(self.BAD, relpath="tests/core/test_mod.py")
        assert rule_lines(findings, "OBS001") == []

    def test_shadowed_print_method_is_fine(self):
        findings = run(
            """\
            class Reporter:
                def render(self, out):
                    out.print("ok")
            __all__ = ["Reporter"]
            """,
            relpath="src/repro/core/mod.py",
        )
        assert rule_lines(findings, "OBS001") == []


# ----------------------------------------------------------------------
# OBS002 — instrument names vs docs/observability.md
# ----------------------------------------------------------------------
class TestOBS002:
    CONTEXT = RepoContext(
        root="/repo",
        obs_doc_path="/repo/docs/observability.md",
        obs_names=frozenset(
            {
                "exbox.decisions.admitted",
                "exbox.decisions.rejected",
                "latency.decision",
                "admission_decision",
            }
        ),
    )

    def test_fires_on_uncatalogued_counter(self):
        findings = run(
            """\
            def decide(obs):
                obs.counter("exbox.decisions.ghost").inc()
            __all__ = ["decide"]
            """,
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "OBS002") == [2]

    def test_fires_on_uncatalogued_span_and_event(self):
        findings = run(
            """\
            def decide(obs):
                with obs.span("exbox.mystery"):
                    obs.emit("mystery_event", ok=True)
            __all__ = ["decide"]
            """,
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "OBS002") == [2, 3]

    def test_silent_on_catalogued_names(self):
        findings = run(
            """\
            def decide(obs):
                obs.counter("exbox.decisions.admitted").inc()
                obs.gauge("exbox.decisions.rejected").set(1)
                with obs.span("latency.decision"):
                    obs.emit("admission_decision", admitted=True)
            __all__ = ["decide"]
            """,
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "OBS002") == []

    def test_skips_dynamic_and_non_literal_names(self):
        # f-strings, variables, and conditional expressions are out of
        # scope: only plain literals are checkable.
        findings = run(
            """\
            SPAN = "some.constant"

            def decide(obs, key, label):
                obs.gauge(f"latency.eval.{key}").set(1.0)
                with obs.span(SPAN):
                    obs.counter(
                        "exbox.decisions.admitted"
                        if label > 0
                        else "exbox.decisions.rejected"
                    ).inc()
            __all__ = ["SPAN", "decide"]
            """,
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "OBS002") == []

    def test_silent_without_catalogue(self):
        findings = run(
            """\
            def decide(obs):
                obs.counter("exbox.decisions.ghost").inc()
            __all__ = ["decide"]
            """,
            context=RepoContext(),
        )
        assert rule_lines(findings, "OBS002") == []

    def test_silent_outside_library_tree(self):
        findings = run(
            """\
            def decide(obs):
                obs.counter("exbox.decisions.ghost").inc()
            """,
            relpath="tests/core/test_mod.py",
            context=self.CONTEXT,
        )
        assert rule_lines(findings, "OBS002") == []


class TestObsCatalogueParsing:
    def test_extracts_full_and_suffix_names(self):
        from repro.lint.context import extract_obs_names

        names = extract_obs_names(
            "| `exbox.decisions.admitted` / `.rejected` / `.demoted` | counter |\n"
            "- `admission_decision` — app class, admitted.\n"
            "Uses `DEFAULT_LATENCY_BUCKETS_S` and `Obs.recording()`.\n"
        )
        assert "exbox.decisions.admitted" in names
        assert "exbox.decisions.rejected" in names
        assert "exbox.decisions.demoted" in names
        assert "admission_decision" in names
        # Non-name tokens (uppercase constants, call syntax) are ignored.
        assert "DEFAULT_LATENCY_BUCKETS_S" not in names
        assert not any("(" in n for n in names)

    def test_repo_catalogue_covers_pipeline_literals(self):
        # The real docs/observability.md must know the real names.
        from pathlib import Path

        from repro.lint.context import RepoContext

        root = Path(__file__).resolve().parents[2]
        context = RepoContext.from_root(root)
        assert context.has_obs_catalogue
        for name in (
            "exbox.handle_arrival",
            "admittance.margin",
            "latency.eval.precision",
            "phase_transition",
            "revalidation_revoked",
        ):
            assert context.knows_obs_name(name), name

    def test_structured_events_catalogue_matches_emitters(self):
        # Both directions: every event type the library emits is listed
        # under "Structured events", and every listed type is emitted.
        import ast
        import re
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        doc = (root / "docs" / "observability.md").read_text(encoding="utf-8")
        section = doc.split("## Structured events", 1)[1].split("\n## ", 1)[0]
        listed = set(re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE))
        emitted = set()
        for path in sorted((root / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    emitted.add(node.args[0].value)
        assert emitted
        assert listed == emitted


# ----------------------------------------------------------------------
# Engine-level behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_produces_e000(self):
        findings = run("def broken(:\n")
        assert [f.rule_id for f in findings] == ["E000"]

    def test_findings_are_sorted_and_unique(self):
        findings = run(
            """\
            import random

            def f(xs=[]):
                return random.random() == 0.5
            """
        )
        assert findings == sorted(findings)
        assert len(findings) == len(set(findings))

    def test_select_and_ignore_filters(self):
        src = """\
            import random

            def f(xs=[]):
                return random.random() == 0.5
            """
        only_det = run_with(src, select=["DET001"])
        assert {f.rule_id for f in only_det} == {"DET001"}
        no_det = run_with(src, ignore=["DET001", "API001"])
        assert "DET001" not in {f.rule_id for f in no_det}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            run_with("x = 1\n", select=["NOPE999"])


def run_with(source, **kwargs):
    return lint_source(
        textwrap.dedent(source), relpath="src/repro/pkg/mod.py", in_package=True, **kwargs
    )
