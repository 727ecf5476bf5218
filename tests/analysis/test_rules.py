"""The shipped lint passes against the seeded-violation fixtures."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import cli
from repro.analysis.passes import available_passes, run_lint

from tests.analysis.conftest import FIXTURES, seed_lines


@pytest.fixture(scope="module")
def fixture_result():
    return run_lint([FIXTURES])


def found(result, code, filename):
    return [
        v
        for v in result.violations
        if v.code == code and v.path.endswith(filename)
    ]


class TestSeededViolations:
    def test_fixtures_are_not_clean(self, fixture_result):
        assert not fixture_result.clean
        assert len(fixture_result.violations) >= 3

    def test_recursion_cycles_reported_at_def_lines(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_recursion.py")
        hits = found(fixture_result, "REC001", "seeded_recursion.py")
        assert {v.lineno for v in hits} == {
            tags["REC001-self"],
            tags["REC001-mutual"],
        }

    def test_float_weight_arithmetic_reported(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_weights.py")
        hits = found(fixture_result, "BAN003", "seeded_weights.py")
        assert {v.lineno for v in hits} == {
            tags["BAN003-div"],
            tags["BAN003-float"],
        }

    def test_manual_timing_reported_in_all_import_shapes(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_timing.py")
        hits = found(fixture_result, "OBS001", "seeded_timing.py")
        assert {v.lineno for v in hits} == {
            tags["OBS001-module"],
            tags["OBS001-module2"],
            tags["OBS001-alias"],
            tags["OBS001-alias2"],
            tags["OBS001-from"],
            tags["OBS001-from2"],
        }
        assert all("telemetry.span" in v.message for v in hits)

    def test_manual_timing_skip_pragma_and_lookalikes(self, fixture_result):
        hits = found(fixture_result, "OBS001", "seeded_timing.py")
        source = (FIXTURES / "seeded_timing.py").read_text().splitlines()
        flagged = {source[v.lineno - 1] for v in hits}
        for line in flagged:
            assert "skip=OBS001" not in line
            assert "obj." not in line
            assert "sleep" not in line

    def test_telemetry_package_is_exempt(self, tmp_path):
        package = tmp_path / "repro" / "telemetry"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "core.py").write_text(
            textwrap.dedent(
                """
                from time import perf_counter

                def now():
                    return perf_counter()
                """
            )
        )
        result = run_lint([package / "core.py"], select=["OBS001"])
        assert result.clean

    def test_non_telemetry_module_in_package_is_flagged(self, tmp_path):
        package = tmp_path / "repro" / "bench"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "timingish.py").write_text(
            textwrap.dedent(
                """
                import time

                def probe():
                    return time.monotonic()
                """
            )
        )
        result = run_lint([package / "timingish.py"], select=["OBS001"])
        assert len(result.violations) == 1
        assert result.violations[0].code == "OBS001"
        assert "time.monotonic" in result.violations[0].message

    def test_span_hygiene_reported_in_all_shapes(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_spans.py")
        hits = found(fixture_result, "OBS002", "seeded_spans.py")
        assert {v.lineno for v in hits} == {
            tags["OBS002-computed"],
            tags["OBS002-variable"],
            tags["OBS002-keyword"],
            tags["OBS002-emptydict"],
            tags["OBS002-splat"],
        }

    def test_span_hygiene_literals_pragma_and_lookalikes_not_flagged(
        self, fixture_result
    ):
        hits = found(fixture_result, "OBS002", "seeded_spans.py")
        source = (FIXTURES / "seeded_spans.py").read_text().splitlines()
        flagged = {source[v.lineno - 1] for v in hits}
        for line in flagged:
            assert "skip=OBS002" not in line
            assert "obj." not in line
            assert 'f"' not in line

    def test_span_hygiene_telemetry_package_is_exempt(self, tmp_path):
        package = tmp_path / "repro" / "telemetry"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "helpers.py").write_text(
            textwrap.dedent(
                """
                from repro.telemetry.core import Span

                def reopen(name):
                    return Span(name, {})
                """
            )
        )
        result = run_lint([package / "helpers.py"], select=["OBS002"])
        assert result.clean

    def test_async_span_reported_in_all_shapes(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_async_spans.py")
        hits = found(fixture_result, "OBS003", "seeded_async_spans.py")
        assert {v.lineno for v in hits} == {
            tags["OBS003-module"],
            tags["OBS003-bare"],
            tags["OBS003-class"],
            tags["OBS003-await"],
            tags["OBS003-nested"],
        }
        assert all("thread-local" in v.message for v in hits)

    def test_async_span_sanctioned_shapes_not_flagged(self, fixture_result):
        hits = found(fixture_result, "OBS003", "seeded_async_spans.py")
        source = (FIXTURES / "seeded_async_spans.py").read_text().splitlines()
        flagged = {source[v.lineno - 1] for v in hits}
        for line in flagged:
            assert "skip=OBS003" not in line
            assert "is_fine" not in line
        # the literal-name seeds must not double as OBS002 offences
        assert not found(fixture_result, "OBS002", "seeded_async_spans.py")

    def test_async_span_test_files_and_telemetry_are_exempt(self, tmp_path):
        snippet = textwrap.dedent(
            """
            from repro import telemetry

            async def handler(request):
                with telemetry.span("service.handler"):
                    return request
            """
        )
        for name, expected in [
            ("test_handlers.py", 0),
            ("conftest.py", 0),
            ("handlers.py", 1),
        ]:
            target = tmp_path / name
            target.write_text(snippet)
            result = run_lint([target], select=["OBS003"])
            assert len(result.violations) == expected, name

    def test_async_span_offloaded_callable_is_exempt(self, tmp_path):
        target = tmp_path / "handlers.py"
        target.write_text(
            textwrap.dedent(
                """
                from repro import telemetry

                async def handler(service, store, xpath):
                    def job():
                        with telemetry.span("query.offloaded"):
                            return store.query(xpath)

                    return await service.run_blocking(job)
                """
            )
        )
        result = run_lint([target], select=["OBS003"])
        assert result.clean

    def test_exception_swallows_reported_in_all_shapes(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_swallow.py")
        hits = found(fixture_result, "RB001", "seeded_swallow.py")
        assert {v.lineno for v in hits} == {
            tags["RB001-bare"],
            tags["RB001-bare-handled"],
            tags["RB001-exception"],
            tags["RB001-base"],
            tags["RB001-dotted"],
            tags["RB001-tuple"],
            tags["RB001-continue"],
        }
        bare = {tags["RB001-bare"], tags["RB001-bare-handled"]}
        assert all(
            ("KeyboardInterrupt" if v.lineno in bare else "swallows") in v.message
            for v in hits
        )

    def test_one_finding_per_handler(self, fixture_result):
        lines = [
            v.lineno
            for v in fixture_result.violations
            if v.path.endswith("seeded_swallow.py")
        ]
        assert len(lines) == len(set(lines)) == 7

    def test_swallow_handled_narrow_and_reraise_not_flagged(self, fixture_result):
        hits = found(fixture_result, "RB001", "seeded_swallow.py")
        source = (FIXTURES / "seeded_swallow.py").read_text().splitlines()
        flagged_bodies = {source[v.lineno] for v in hits}  # line after handler
        for body in flagged_bodies:
            assert "log(" not in body
            assert "raise" not in body

    def test_swallow_in_test_files_is_exempt(self, tmp_path):
        swallow = textwrap.dedent(
            """
            def check(run):
                try:
                    run()
                except Exception:
                    pass
            """
        )
        for name, expected in [
            ("test_something.py", 0),
            ("conftest.py", 0),
            ("helpers.py", 1),
        ]:
            target = tmp_path / name
            target.write_text(swallow)
            result = run_lint([target], select=["RB001"])
            assert len(result.violations) == expected, name

    def test_bare_except_is_flagged_in_test_files_too(self, tmp_path):
        target = tmp_path / "test_something.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        result = run_lint([target], select=["RB001"])
        assert [v.lineno for v in result.violations] == [3]

    def test_async_blocking_calls_reported_in_all_shapes(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_async.py")
        hits = found(fixture_result, "RB002", "seeded_async.py")
        assert {v.lineno for v in hits} == {
            tags["RB002-parse"],
            tags["RB002-load"],
            tags["RB002-build"],
            tags["RB002-warmup"],
            tags["RB002-query"],
            tags["RB002-push"],
            tags["RB002-resume"],
            tags["RB002-partition"],
        }
        assert all("executor-offload" in v.message for v in hits)

    def test_async_blocking_offload_and_str_partition_not_flagged(
        self, fixture_result
    ):
        hits = found(fixture_result, "RB002", "seeded_async.py")
        source = (FIXTURES / "seeded_async.py").read_text().splitlines()
        for violation in hits:
            line = source[violation.lineno - 1]
            assert "run_blocking" not in line
            assert 'partition(":")' not in line

    def test_async_blocking_in_test_files_is_exempt(self, tmp_path):
        blocking = textwrap.dedent(
            """
            async def handler(loader, body):
                return loader.load(body)
            """
        )
        for name, expected in [
            ("test_service.py", 0),
            ("conftest.py", 0),
            ("handlers.py", 1),
        ]:
            target = tmp_path / name
            target.write_text(blocking)
            result = run_lint([target], select=["RB002"])
            assert len(result.violations) == expected, name

    def test_durability_fsync_reported_in_all_shapes(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_wal.py")
        hits = found(fixture_result, "RB003", "seeded_wal.py")
        assert {v.lineno for v in hits} == {
            tags["RB003-with-nofsync"],
            tags["RB003-replace"],
            tags["RB003-rename"],
            tags["RB003-move"],
            tags["RB003-bare"],
            tags["RB003-close"],
            tags["RB003-ioclose"],
        }

    def test_durability_fsync_sanctioned_shapes_not_flagged(self, fixture_result):
        hits = found(fixture_result, "RB003", "seeded_wal.py")
        source = (FIXTURES / "seeded_wal.py").read_text().splitlines()
        flagged = {source[v.lineno - 1] for v in hits}
        for line in flagged:
            assert "skip=RB003" not in line
            assert "is_fine" not in line
            assert "os.open" not in line

    def test_durability_fsync_scoped_to_durability_modules(self, tmp_path):
        snippet = textwrap.dedent(
            """
            import os

            def publish(tmp, path):
                os.replace(tmp, path)
            """
        )
        for name, expected in [
            ("cache.py", 0),  # out of scope: crash loss is accepted there
            ("wal.py", 1),
            ("checkpointer.py", 1),
            ("test_wal.py", 0),  # test code is exempt by filename
        ]:
            target = tmp_path / name
            target.write_text(snippet)
            result = run_lint([target], select=["RB003"])
            assert len(result.violations) == expected, name

    def test_durability_fsync_real_recovery_modules_are_clean(self):
        from tests.analysis.conftest import REPO_SRC

        result = run_lint(
            [
                REPO_SRC / "recovery",
                REPO_SRC / "bulkload" / "journal.py",
            ],
            select=["RB003"],
        )
        assert result.clean, [str(v) for v in result.violations]

    def test_per_hop_callback_reported_in_all_shapes(self, fixture_result):
        tags = seed_lines(FIXTURES / "seeded_perf002.py")
        hits = found(fixture_result, "PERF002", "seeded_perf002.py")
        assert {v.lineno for v in hits} == {
            tags["PERF002-for"],
            tags["PERF002-while"],
            tags["PERF002-recorder"],
            tags["PERF002-charge"],
            tags["PERF002-hop"],
        }

    def test_per_hop_buffer_pattern_not_flagged(self, fixture_result):
        source = (FIXTURES / "seeded_perf002.py").read_text().splitlines()
        clean_lines = {
            lineno
            for lineno, line in enumerate(source, start=1)
            if "clean" in line
        }
        hits = found(fixture_result, "PERF002", "seeded_perf002.py")
        assert not clean_lines & {v.lineno for v in hits}

    def test_per_hop_callback_skip_pragma(self, fixture_result):
        source = (FIXTURES / "seeded_perf002.py").read_text().splitlines()
        skipped = {
            lineno
            for lineno, line in enumerate(source, start=1)
            if "skip=PERF002" in line
        }
        assert skipped
        hits = found(fixture_result, "PERF002", "seeded_perf002.py")
        assert not skipped & {v.lineno for v in hits}

    def test_render_is_file_line_code_message(self, fixture_result):
        for violation in fixture_result.violations:
            rendered = violation.render()
            assert rendered.startswith(f"{violation.path}:{violation.lineno}: ")
            assert f" {violation.code} " in rendered


class TestSkipPragma:
    def test_skip_with_matching_code(self, tmp_path):
        target = tmp_path / "skipper.py"
        target.write_text(
            textwrap.dedent(
                """
                def f(x):
                    try:
                        return int(x)
                    except:  # repro-lint: skip=RB001
                        return None
                """
            )
        )
        assert run_lint([target]).clean

    def test_skip_without_codes_suppresses_everything(self, tmp_path):
        target = tmp_path / "skipper.py"
        target.write_text(
            textwrap.dedent(
                """
                def f(x):
                    try:
                        return int(x)
                    except:  # repro-lint: skip
                        return None
                """
            )
        )
        assert run_lint([target]).clean

    def test_skip_with_other_code_does_not_suppress(self, tmp_path):
        target = tmp_path / "skipper.py"
        target.write_text(
            textwrap.dedent(
                """
                def f(x):
                    try:
                        return int(x)
                    except:  # repro-lint: skip=REC001
                        return None
                """
            )
        )
        result = run_lint([target])
        assert [v.code for v in result.violations] == ["RB001"]


class TestSelection:
    def test_select_runs_only_named_passes(self):
        result = run_lint([FIXTURES], select=["REC001"])
        assert result.passes_run == 1
        assert {v.code for v in result.violations} == {"REC001"}

    def test_ignore_drops_named_passes(self):
        result = run_lint([FIXTURES], ignore=["REC001"])
        assert "REC001" not in {v.code for v in result.violations}

    def test_every_registered_pass_has_unique_code(self):
        codes = [cls.code for cls in available_passes()]
        assert len(codes) == len(set(codes))
        assert set(codes) == {
            "REC001",
            "BAN003",
            "OBS001",
            "OBS002",
            "OBS003",
            "RB001",
            "RB002",
            "RB003",
            "PERF002",
            "CC001",
            "CC003",
        }


class TestCli:
    def test_violations_exit_code_and_text_output(self, capsys):
        assert cli.main([str(FIXTURES)]) == cli.EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "seeded_swallow.py" in out
        assert "RB001" in out
        assert "violation(s)" in out

    def test_json_format(self, capsys):
        assert cli.main(["--format", "json", str(FIXTURES)]) == cli.EXIT_VIOLATIONS
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] >= 3
        codes = {v["code"] for v in payload["violations"]}
        assert "REC001" in codes
        sample = payload["violations"][0]
        assert set(sample) == {"path", "line", "code", "message"}

    def test_select_filter(self, capsys):
        assert cli.main(["--select", "RB001", str(FIXTURES)]) == cli.EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "RB001" in out
        assert "REC001" not in out

    def test_unknown_code_is_usage_error_not_vacuous_pass(self, capsys):
        assert cli.main(["--select", "NOPE99", str(FIXTURES)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "NOPE99" in err and "REC001" in err
        assert cli.main(["--ignore", "TYPO", str(FIXTURES)]) == cli.EXIT_ERROR

    def test_no_paths_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_ERROR
        assert "no paths" in capsys.readouterr().err

    def test_list_passes(self, capsys):
        assert cli.main(["--list-passes"]) == cli.EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("REC001", "BAN003", "RB001", "PERF002", "CC001"):
            assert code in out

    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        (tmp_path / "fine.py").write_text("def f():\n    return 1\n")
        assert cli.main([str(tmp_path)]) == cli.EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    @pytest.fixture
    def guarded(self, tmp_path):
        """A module with one CC001 finding and nothing else."""
        target = tmp_path / "guarded.py"
        target.write_text(
            textwrap.dedent(
                """
                import threading

                _lock = threading.Lock()
                _jobs = []  # repro: guarded-by(_lock)


                def enqueue(job):
                    _jobs.append(job)
                """
            )
        )
        return str(target)

    def test_family_prefix_select(self, guarded, capsys):
        assert cli.main(["--select", "CC", guarded]) == cli.EXIT_VIOLATIONS
        assert "CC001" in capsys.readouterr().out
        assert cli.main(["--select", "RB", guarded]) == cli.EXIT_CLEAN

    def test_family_prefix_ignore(self, guarded):
        assert cli.main(["--ignore", "CC", guarded]) == cli.EXIT_CLEAN

    def test_unknown_family_prefix_is_usage_error(self, guarded, capsys):
        assert cli.main(["--select", "ZZ", guarded]) == cli.EXIT_ERROR
        assert "ZZ" in capsys.readouterr().err
