"""The user-facing ``repro`` command line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.datasets import xmark_document
from repro.xmlio import write_xml


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "doc.xml"
    write_xml(xmark_document(scale=0.002, seed=4), path)
    return str(path)


class TestDispatch:
    @pytest.mark.parametrize(
        "verb",
        "partition import query compare stats serve recover bench explain faults lint".split(),
    )
    def test_every_verb_has_help(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        assert f"usage: repro {verb}" in capsys.readouterr().out

    def test_python_dash_m_repro(self):
        src = str(Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-passes"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "REC001" in done.stdout


class TestPartitionCommand:
    def test_basic(self, doc_path, capsys):
        assert main(["partition", doc_path]) == 0
        out = capsys.readouterr().out
        assert "partitions" in out
        assert "ekm" in out

    def test_render(self, doc_path, capsys):
        assert main(["partition", doc_path, "--render", "--render-nodes", "10"]) == 0
        out = capsys.readouterr().out
        assert "◀ interval" in out

    def test_other_algorithm(self, doc_path, capsys):
        assert main(["partition", doc_path, "--algorithm", "km"]) == 0
        assert "km:" in capsys.readouterr().out

    def test_unknown_algorithm_fails_cleanly(self, doc_path, capsys):
        assert main(["partition", doc_path, "--algorithm", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["partition", "/no/such/file.xml"]) == 1


class TestImportCommand:
    def test_basic(self, doc_path, capsys):
        assert main(["import", doc_path]) == 0
        out = capsys.readouterr().out
        assert "imported" in out
        assert "records" in out

    def test_with_spill(self, doc_path, capsys):
        assert main(["import", doc_path, "--spill-threshold", "1024"]) == 0
        out = capsys.readouterr().out
        assert "spills" in out


class TestQueryCommand:
    def test_counts_and_costs(self, doc_path, capsys):
        assert main(["query", doc_path, "//keyword"]) == 0
        out = capsys.readouterr().out
        assert "results" in out
        assert "cross-record" in out

    def test_show_results(self, doc_path, capsys):
        assert main(["query", doc_path, "//keyword", "--show", "3"]) == 0
        assert "<keyword>" in capsys.readouterr().out

    def test_bad_xpath(self, doc_path, capsys):
        assert main(["query", doc_path, "///"]) == 1


class TestCompareCommand:
    def test_lists_algorithms(self, doc_path, capsys):
        assert main(["compare", doc_path]) == 0
        out = capsys.readouterr().out
        for name in ("ghdw", "ekm", "km", "bfs"):
            assert name in out
        assert "dhw" not in out  # skipped by default

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestStatsCommand:
    def test_text_report(self, doc_path, capsys):
        assert main(["stats", doc_path]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "partition.ekm.runs" in out
        assert "storage.buffer" in out

    def test_query_metrics_included(self, doc_path, capsys):
        assert main(["stats", doc_path, "--query", "//keyword"]) == 0
        assert "query.runs" in capsys.readouterr().out

    def test_json_snapshot(self, doc_path, capsys):
        import json

        assert main(["stats", doc_path, "--json", "--with-import"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-telemetry/1"
        assert payload["counters"]["bulkload.runs"] == 1
        assert "environment" in payload

    def test_jsonl_export(self, doc_path, capsys):
        import json

        assert main(["stats", doc_path, "--jsonl"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0] == {"kind": "meta", "schema": "repro-telemetry/1"}
        assert any(l["kind"] == "counter" for l in lines)

    def test_prometheus_export(self, doc_path, capsys):
        assert main(["stats", doc_path, "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_partition_ekm_runs_total counter" in out
        assert "repro_partition_ekm_runs_total 1" in out
        assert out.endswith("\n")
        totals = [
            line.split()[0]
            for line in out.splitlines()
            if not line.startswith("#") and line.split()[0].endswith("_total")
        ]
        assert totals == sorted(totals)

    def test_stats_algorithm_option(self, doc_path, capsys):
        assert main(["stats", doc_path, "--algorithm", "km"]) == 0
        assert "partition.km.runs" in capsys.readouterr().out

    def test_stats_does_not_leak_global_state(self, doc_path, capsys):
        from repro import telemetry

        assert main(["stats", doc_path]) == 0
        capsys.readouterr()
        assert not telemetry.enabled()
        assert telemetry.registry().empty


class TestRecoverCommand:
    @staticmethod
    def _committed_log(tmp_path) -> str:
        from repro.recovery import WriteAheadLog

        path = str(tmp_path / "store.wal")
        with WriteAheadLog(path) as wal:
            txn = wal.begin([0], labels=["site"], record_limit=32)
            wal.log_image(txn, 0, b"blob")
            wal.commit(txn)
        return path

    def test_clean_log_exits_zero(self, tmp_path, capsys):
        path = self._committed_log(tmp_path)
        assert main(["recover", path]) == 0
        out = capsys.readouterr().out
        assert "committed txn 1" in out
        assert "clean" in out

    def test_missing_log_reads_as_empty(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "never.wal")]) == 0
        assert "snapshot: none" in capsys.readouterr().out

    def test_torn_tail_exits_two_until_trimmed(self, tmp_path, capsys):
        path = self._committed_log(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")

        assert main(["recover", path]) == 2
        assert "torn tail: 3B" in capsys.readouterr().out
        assert main(["recover", path, "--trim"]) == 0
        assert "trimmed 3B" in capsys.readouterr().out
        assert main(["recover", path]) == 0

    def test_open_transaction_is_residue(self, tmp_path, capsys):
        from repro.recovery import WriteAheadLog

        path = str(tmp_path / "store.wal")
        wal = WriteAheadLog(path).open()
        wal.begin([0], labels=["site"], record_limit=32)
        wal.close()

        assert main(["recover", path]) == 2
        assert "uncommitted" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        import json as json_mod

        path = self._committed_log(tmp_path)
        assert main(["recover", path, "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["frames"] == 3  # BEGIN + IMAGE + COMMIT
        assert payload["committed_transactions"] == [
            {"txn_id": 1, "dirty_records": [0], "images": 1}
        ]
        assert payload["labels"] == 1
        assert payload["record_limit"] == 32
        assert payload["torn_bytes"] == 0

    def test_interior_corruption_exits_one(self, tmp_path, capsys):
        import struct

        path = str(tmp_path / "store.wal")
        from repro.recovery import WriteAheadLog

        with WriteAheadLog(path) as wal:
            for _ in range(2):
                txn = wal.begin([0], labels=["site"], record_limit=32)
                wal.commit(txn)
        data = bytearray(open(path, "rb").read())
        data[struct.calcsize("<II") + 1] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        assert main(["recover", path]) == 1
        assert "interior corruption" in capsys.readouterr().err
