"""Tests for the published-list format and the CLI."""

import io

import pytest

from repro import publish
from repro.analysis.pipeline import detect_at
from repro.cli import main
from repro.dates import REFERENCE_DATE
from repro.nettypes.addr import format_ipv6
from repro.nettypes.prefix import Prefix
from repro.storage.archive import ArchiveReader
from repro.storage.format import FOOTER
from repro.storage.index_io import load_mapped_index


@pytest.fixture(scope="module")
def published(tiny_universe):
    siblings, _ = detect_at(tiny_universe, REFERENCE_DATE)
    return publish.enrich_pairs(tiny_universe, siblings, REFERENCE_DATE)


class TestPublish:
    def test_enrichment(self, published):
        assert published
        assert all(0.0 < pair.jaccard <= 1.0 for pair in published)
        assert any(pair.same_org for pair in published)
        assert any(pair.same_org is False for pair in published)
        # Sorted deterministically.
        keys = [(pair.v4_prefix, pair.v6_prefix) for pair in published]
        assert keys == sorted(keys)

    def test_csv_roundtrip(self, published):
        stream = io.StringIO()
        count = publish.write_csv(published, stream, REFERENCE_DATE)
        assert count == len(published)
        stream.seek(0)
        loaded = publish.read_csv(stream)
        assert len(loaded) == len(published)
        assert loaded[0].v4_prefix == published[0].v4_prefix
        assert loaded[0].jaccard == pytest.approx(published[0].jaccard, abs=1e-6)
        assert loaded[0].same_org == published[0].same_org

    def test_csv_header_comment(self, published):
        stream = io.StringIO()
        publish.write_csv(published, stream, REFERENCE_DATE)
        first_line = stream.getvalue().splitlines()[0]
        assert first_line.startswith("# sibling-prefixes list v1")
        assert "2024-09-11" in first_line

    def test_jsonl_roundtrip(self, published):
        stream = io.StringIO()
        publish.write_jsonl(published, stream, REFERENCE_DATE)
        stream.seek(0)
        meta, loaded = publish.read_jsonl(stream)
        assert meta["pairs"] == len(published)
        assert meta["format_version"] == publish.FORMAT_VERSION
        assert {str(pair.v6_prefix) for pair in loaded} == {
            str(pair.v6_prefix) for pair in published
        }

    def test_jsonl_empty(self):
        meta, pairs = publish.read_jsonl(io.StringIO())
        assert meta == {} and pairs == []

    def test_rov_enrichment(self, tiny_universe):
        from repro.rpki.builder import repository_from_universe

        siblings, _ = detect_at(tiny_universe, REFERENCE_DATE)
        repository = repository_from_universe(tiny_universe)
        enriched = publish.enrich_pairs(
            tiny_universe, siblings, REFERENCE_DATE, repository
        )
        statuses = {pair.rov_status for pair in enriched}
        assert "both valid" in statuses or "valid + not found" in statuses


class TestCli:
    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "paper" in out

    def test_detect_table(self, capsys):
        assert main(["detect", "--scenario", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "sibling pairs" in out
        assert "same-org" in out

    def test_detect_csv_and_lookup(self, tmp_path, capsys):
        list_file = tmp_path / "siblings.csv"
        assert (
            main(
                [
                    "detect",
                    "--scenario",
                    "tiny",
                    "--format",
                    "csv",
                    "-o",
                    str(list_file),
                ]
            )
            == 0
        )
        content = list_file.read_text()
        assert content.startswith("# sibling-prefixes list")
        # Look up the first listed v4 prefix.
        first = publish.read_csv(io.StringIO(content))[0]
        assert main(["lookup", str(list_file), str(first.v4_prefix)]) == 0
        out = capsys.readouterr().out
        assert str(first.v4_prefix) in out

    def test_lookup_miss(self, tmp_path, capsys):
        list_file = tmp_path / "siblings.csv"
        main(["detect", "--scenario", "tiny", "--format", "csv", "-o", str(list_file)])
        capsys.readouterr()
        assert main(["lookup", str(list_file), "203.0.113.0/24"]) == 1

    def test_detect_tuned_min_jaccard(self, capsys):
        assert (
            main(
                [
                    "detect",
                    "--scenario",
                    "tiny",
                    "--tune",
                    "28,96",
                    "--min-jaccard",
                    "0.999",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "perfect: 100.0%" in out

    def test_bad_tune_value(self):
        with pytest.raises(SystemExit):
            main(["detect", "--tune", "nonsense"])

    def test_experiment_command(self, capsys):
        assert main(["experiment", "sec42", "--scenario", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "sibling pairs" in out
        assert "same_org_share" in out


class TestStreamCsv:
    def test_streams_same_pairs_as_read_csv(self, published):
        stream = io.StringIO()
        publish.write_csv(published, stream, REFERENCE_DATE)
        stream.seek(0)
        streamed = list(publish.stream_csv(stream))
        assert streamed == publish.read_csv(io.StringIO(stream.getvalue()))

    def test_rejects_wrong_header(self):
        with pytest.raises(publish.PublishFormatError, match="header"):
            list(publish.stream_csv(io.StringIO("garbage\n1,2,3\n")))

    def test_rejects_malformed_row_with_file_line_number(self, published):
        stream = io.StringIO()
        publish.write_csv(published, stream, REFERENCE_DATE)
        broken = stream.getvalue() + "not-a-prefix,zz,bad,1,1,1,,\n"
        # The bad row is the last physical line, counting the comment.
        bad_line = broken.count("\n")
        with pytest.raises(
            publish.PublishFormatError, match=f"line {bad_line}"
        ):
            list(publish.stream_csv(io.StringIO(broken)))

    def test_header_snapshot_date(self, published):
        stream = io.StringIO()
        publish.write_csv(published, stream, REFERENCE_DATE)
        header = stream.getvalue().splitlines()[0]
        assert publish.header_snapshot_date(header) == REFERENCE_DATE
        assert publish.header_snapshot_date("v4_prefix,v6_prefix") is None
        assert publish.header_snapshot_date("# no date here") is None
        assert publish.header_snapshot_date("# a | snapshot=20XX-01-01") is None


class TestServingCli:
    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        """One detect run exported as CSV + .sparch archive."""
        directory = tmp_path_factory.mktemp("exports")
        csv_path = directory / "siblings.csv"
        index_path = directory / "siblings.sparch"
        assert (
            main(
                [
                    "detect", "--scenario", "tiny", "--format", "csv",
                    "-o", str(csv_path), "--archive", str(index_path),
                ]
            )
            == 0
        )
        return csv_path, index_path

    def test_detect_archive_keeps_step3_counter(self, exports):
        """``detect --archive`` archives the state of the engine that
        detected, so the resume state carries its Step-3 counter."""
        _, index_path = exports
        with ArchiveReader.open(index_path) as reader:
            state_meta = reader.latest("state").meta["state"]
        assert state_meta["has_counts"]
        assert state_meta["pairs"] > 0

    def test_lookup_index_matches_csv(self, exports, capsys):
        csv_path, index_path = exports
        first = publish.read_csv(io.StringIO(csv_path.read_text()))[0]
        assert main(["lookup", str(index_path), str(first.v4_prefix)]) == 0
        from_index = capsys.readouterr().out
        assert main(["lookup", str(csv_path), str(first.v4_prefix)]) == 0
        from_csv = capsys.readouterr().out
        assert from_index == from_csv
        assert str(first.v4_prefix) in from_index

    def test_lookup_address_inside_prefix(self, exports, capsys):
        _, index_path = exports
        index = load_mapped_index(index_path)
        target = index.pairs[0].v6_prefix
        address = format_ipv6(target.value | 0x99)
        expected = index.lookup(address)
        index.close()
        assert main(["lookup", str(index_path), address]) == 0
        assert str(expected.matched) in capsys.readouterr().out

    def test_lookup_malformed_query_exits_2(self, exports, capsys):
        csv_path, _ = exports
        assert main(["lookup", str(csv_path), "not-an-ip"]) == 2
        assert "error" in capsys.readouterr().err

    def test_lookup_missing_file_exits_2(self, capsys):
        assert main(["lookup", "/nonexistent/list.csv", "192.0.2.1"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_lookup_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        assert main(["lookup", str(bad), "192.0.2.1"]) == 2
        assert "not a sibling list export" in capsys.readouterr().err

    def test_lookup_corrupt_index_exits_2(self, exports, tmp_path, capsys):
        _, index_path = exports
        data = bytearray(index_path.read_bytes())
        # Flip a byte of the manifest (its offset is in the footer).
        manifest = int.from_bytes(
            data[-FOOTER.size + 8:-FOOTER.size + 16], "little"
        )
        data[manifest + 4] ^= 0xFF
        corrupt = tmp_path / "corrupt.sparch"
        corrupt.write_bytes(bytes(data))
        assert main(["lookup", str(corrupt), "192.0.2.1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_lookup_binary_garbage_exits_2(self, tmp_path, capsys):
        garbled = tmp_path / "garbled.bin"
        garbled.write_bytes(b"\xff\xfe\x00\x01garbled")
        assert main(["lookup", str(garbled), "192.0.2.1"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["serve", str(garbled)]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        assert main(["serve", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
