import tracemalloc
import warnings

import numpy as np
import pytest

from flowcast import io
from flowcast.io import export, ingest
from flowcast.synthetic import SyntheticSpec, generate_synthetic


def write_csv(path, rows, header="station_id,day_index,slot_index,count"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def full_grid_rows():
    rows = []
    for sid in ("north", "south"):
        for day in range(2):
            for slot in range(3):
                rows.append(f"{sid},{day},{slot},{len(rows) + 1}.5")
    return rows


class TestIngest:
    def test_full_file_maps_cell_by_cell(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, full_grid_rows())
        tensor, ids, report = ingest(path, (2, 3))
        assert ids == ["north", "south"]
        assert tensor.shape == (2, 2, 3)
        want = np.arange(1, 13).reshape(2, 2, 3) + 0.5
        assert np.array_equal(tensor, want)
        assert report.n_rows == 12
        assert report.n_stations == 2
        assert report.missing_count == 0

    def test_station_order_follows_first_appearance(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, ["b,0,0,1.0", "a,0,1,2.0", "b,0,1,3.0", "a,0,0,4.0"])
        tensor, ids, _ = ingest(path, (1, 2))
        assert ids == ["b", "a"]
        assert np.array_equal(tensor, [[[1.0, 3.0]], [[4.0, 2.0]]])

    def test_absent_cells_are_zero_filled_and_counted(self, tmp_path):
        path = tmp_path / "flows.csv"
        rows = full_grid_rows()
        dropped = rows.pop(4)  # north, day 1, slot 1
        write_csv(path, rows)
        tensor, _, report = ingest(path, (2, 3))
        assert dropped == "north,1,1,5.5"
        assert tensor[0, 1, 1] == 0.0
        assert report.missing_count == 1
        assert report.n_rows == 11

    def test_duplicate_key_is_named_in_the_error(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, ["a,0,0,1.0", "a,0,1,2.0", "a,0,0,3.0"])
        with pytest.raises(ValueError, match=r"'a', 0, 0"):
            ingest(path, (1, 2))

    def test_out_of_range_indices_are_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, ["a,2,0,1.0"])
        with pytest.raises(ValueError, match="day_index 2"):
            ingest(path, (2, 3))
        write_csv(path, ["a,0,3,1.0"])
        with pytest.raises(ValueError, match="slot_index 3"):
            ingest(path, (2, 3))
        write_csv(path, ["a,-1,0,1.0"])
        with pytest.raises(ValueError, match="day_index -1"):
            ingest(path, (2, 3))
        write_csv(path, ["a,0,-2,1.0"])
        with pytest.raises(ValueError, match="slot_index -2"):
            ingest(path, (2, 3))

    def test_negative_count_is_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, ["a,0,0,-1.0"])
        with pytest.raises(ValueError, match="negative count"):
            ingest(path, (1, 1))

    def test_malformed_input_is_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, ["a,zero,0,1.0"])
        with pytest.raises(ValueError, match="line 2"):
            ingest(path, (1, 1))
        write_csv(path, ["a,0,0"])
        with pytest.raises(ValueError, match="expected 4 fields"):
            ingest(path, (1, 1))
        write_csv(path, ["a,0,0,1.0"], header="station,day,slot,n")
        with pytest.raises(ValueError, match="expected header"):
            ingest(path, (1, 1))

    @pytest.mark.parametrize("count", ["nan", "inf", "1e400"])
    def test_non_finite_count_is_rejected_with_its_line(self, tmp_path, count):
        path = tmp_path / "flows.csv"
        write_csv(path, ["a,0,0,1.0", f"a,0,1,{count}"])
        with pytest.raises(ValueError, match=r"^line 3: non-finite count for \(a, 0, 1\)$"):
            ingest(path, (1, 2))

    @pytest.mark.parametrize("rows, line", [
        (['"x\ny",0,0,1', "a,5,0,1"], 4),  # the quoted id spans lines 2 and 3
        (["", '"x\ny",0,0,1', "", "a,5,0,1"], 6),  # blank lines count as lines
    ], ids=["quoted newline", "and blank lines"])
    def test_row_after_a_quoted_newline_is_named_by_its_line(self, tmp_path, rows, line):
        path = tmp_path / "flows.csv"
        write_csv(path, rows)
        with pytest.raises(ValueError, match=rf"^line {line}: day_index 5 outside \[0, 2\)$"):
            ingest(path, (2, 3))

    def test_negative_infinity_stays_a_negative_count(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, ["a,0,0,-inf"])
        with pytest.raises(ValueError, match="line 2: negative count"):
            ingest(path, (1, 1))

    def test_field_over_the_csv_limit_is_a_value_error_with_its_line(self, tmp_path):
        # the duplicate sends the file to the row loop, whose csv.reader stops at the id
        long_id = "x" * 140_000
        path = tmp_path / "flows.csv"
        write_csv(path, ["a,0,0,1.0", f"{long_id},0,0,2.0", f"{long_id},0,0,3.0"])
        with pytest.raises(ValueError, match=r"^line 3: field larger than field limit"):
            ingest(path, (1, 1))
        write_csv(path, ["a,0,0,1.0"], header=f"station_id,day_index,slot_index,{long_id}")
        with pytest.raises(ValueError, match=r"^line 1: field larger than field limit"):
            ingest(path, (1, 1))

    def test_empty_file_and_bad_extents_are_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, [])
        with pytest.raises(ValueError, match="no records"):
            ingest(path, (1, 1))
        with pytest.raises(ValueError, match="extents"):
            ingest(path, (0, 1))

    @pytest.mark.parametrize("extents", [(3.9, 4.2), (2, 3.5), (float("inf"), 3),
                                         (float("nan"), 3)])
    def test_non_integral_extents_are_rejected(self, tmp_path, extents):
        path = tmp_path / "flows.csv"
        write_csv(path, full_grid_rows())
        with pytest.raises(ValueError, match="extents must be whole numbers"):
            ingest(path, extents)

    @pytest.mark.parametrize("extents", [(np.int64(2), np.int32(3)), (2.0, np.float32(3)),
                                         (np.uint8(2), 3)])
    def test_integral_extents_of_any_numeric_type(self, tmp_path, extents):
        path = tmp_path / "flows.csv"
        write_csv(path, full_grid_rows())
        tensor, _, _ = ingest(path, extents)
        assert tensor.shape == (2, 2, 3)


# (body after the header, whether the array parse must vouch for it)
EDGE_CASES = {
    "whitespace-only line": ("a,0,0,1\n   \nb,0,1,2\n", False),
    "blank lines": ("a,0,0,1\n\n\nb,0,1,2\n\n", True),
    "hash-prefixed id": ("#a,0,0,1\nb,0,1,2\n", True),
    "empty id": (",0,0,1\nb,0,1,2\n", True),
    "quoted id with comma": ('"a,b",0,0,1\nb,0,1,2\n', True),
    "bare quote in id": ('a"b,0,0,1\nb,0,1,2\n', True),
    "doubled quote in id": ('"a""b",0,0,1\na"b,0,1,2\n', True),
    "crlf": ("a,0,0,1\r\nb,0,1,2\r\nb,1,2,3\r\n", True),
    "plus index": ("a,+0,0,1\n", True),
    "space index": ("a, 0,0,1\n", True),
    "underscore index": ("a,1_0,0,1\na,0,1_0,2\n", False),
    "float day": ("a,0.0,0,1\n", False),
    "index beyond int64": ("a,0,99999999999999999999,1\n", False),
    "hex count": ("a,0,0,0x1p3\n", False),
    "nan count": ("a,0,0,nan\n", False),
    "inf count": ("a,0,0,inf\n", False),
    "overflowing count": ("a,0,0,1e400\n", False),
    "40-character id": ("s" * 40 + ",0,0,1\n" + "s" * 39 + ",0,0,2\n", True),
    "trailing comma": ("a,0,0,1,\n", False),
    "empty field": ("a,0,,1\n", False),
    "header only": ("", False),
    "duplicate cell": ("a,0,0,1\nb,0,0,2\na,0,0,3\n", False),
    "day out of range": ("a,0,0,1\na,2,0,1\n", False),
    "negative count": ("a,0,0,-0.0\na,0,1,-2\n", False),
}


def outcome(read, path):
    """Tensor bytes, ids and report, or the error message; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            tensor, ids, report = read(path)
        except ValueError as exc:
            return str(exc)
    return tensor.shape, tensor.tobytes(), ids, report


class TestArrayParseMatchesRowLoop:
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_same_tensor_or_same_message(self, tmp_path, monkeypatch, case, bom):
        body, vouched = EDGE_CASES[case]
        path = tmp_path / "flows.csv"
        text = "station_id,day_index,slot_index,count\n" + body
        path.write_bytes(("\ufeff" * bom + text).encode("utf-8"))
        want = outcome(lambda p: io._ingest_rows(p, 2, 3), path)
        # block sizes that split every case's rows across blocks, then the default
        for block_rows in (1, 2, 3, io.BLOCK_ROWS):
            monkeypatch.setattr(io, "BLOCK_ROWS", block_rows)
            assert outcome(lambda p: ingest(p, (2, 3)), path) == want
            if not bom:
                assert (io._ingest_array(path, 2, 3) is not None) == vouched

    # (rows after the header, whether the array parse must vouch for it); each case
    # puts its point in a later block than the file's first row at block sizes 1-3
    LATER_BLOCK_CASES = {
        "duplicate cell": (["a,0,0,1", "a,0,1,2", "b,0,0,3", "a,0,0,4"], False),
        "new station": (["a,0,0,1", "a,0,1,2", "a,1,0,3", "c,0,0,4", "a,1,1,5"], True),
        "malformed row": (["a,0,0,1", "a,0,1,2", "a,1,0,3", "a,zero,1,4"], False),
        "quoted newline": (["a,0,0,1", '"x\ny",0,1,2', '"x\ny",0,2,3', "b,1,2,4"], True),
    }

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(LATER_BLOCK_CASES))
    def test_later_block_matches_the_row_loop(self, tmp_path, monkeypatch, case, block_rows):
        monkeypatch.setattr(io, "BLOCK_ROWS", block_rows)
        rows, vouched = self.LATER_BLOCK_CASES[case]
        path = tmp_path / "flows.csv"
        write_csv(path, rows)
        got = outcome(lambda p: ingest(p, (2, 3)), path)
        assert got == outcome(lambda p: io._ingest_rows(p, 2, 3), path)
        assert (io._ingest_array(path, 2, 3) is not None) == vouched
        if case == "duplicate cell":
            assert got == "line 5: duplicate record for ('a', 0, 0)"
        if case == "new station":
            assert got[2] == ["a", "c"] and got[3].n_stations == 2

    def test_underscore_index_is_read_by_the_row_loop(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv(path, ["a,1_0,0,1.5"])
        tensor, ids, report = ingest(path, (11, 1))
        assert ids == ["a"] and tensor[0, 10, 0] == 1.5 and report.n_rows == 1


class TestRoundTripAtSize:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        tensor, _ = generate_synthetic(SyntheticSpec(extents=(12, 56, 48), seed=3))
        path = tmp_path_factory.mktemp("io") / "full.csv"
        export(path, tensor, [f"st{l:02d}" for l in range(12)])
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        return tensor, header, rows

    def test_shuffled_rows_with_gaps_reingest(self, tmp_path, exported):
        tensor, header, rows = exported
        rng = np.random.default_rng(7)
        order = rng.permutation(len(rows))
        dropped = order[:5]
        kept = [rows[i] for i in order[5:]]
        path = tmp_path / "shuffled.csv"
        path.write_text("\n".join([header] + kept) + "\n", encoding="utf-8")
        back, ids, report = ingest(path, (56, 48))

        first_seen = list(dict.fromkeys(row.split(",")[0] for row in kept))
        assert ids == first_seen
        want = tensor[[int(sid[2:]) for sid in ids]]
        for i in dropped:
            sid, day, slot, _ = rows[i].split(",")
            want[ids.index(sid), int(day), int(slot)] = 0.0
        assert np.array_equal(back, want)
        assert report.n_rows == len(kept)
        assert report.n_stations == 12
        assert report.missing_count == 5

    def test_duplicate_far_from_its_first_copy_names_its_line(self, tmp_path, exported):
        _, header, rows = exported
        rows = rows[:]
        rows.insert(2500 + 1000, rows[2500])  # 1,000 rows after its first copy
        path = tmp_path / "dup.csv"
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        sid, day, slot, _ = rows[2500].split(",")
        # row i of the data sits on line i + 2
        with pytest.raises(ValueError, match=rf"^line 3502: duplicate record for "
                                             rf"\('{sid}', {day}, {slot}\)$"):
            ingest(path, (56, 48))


class TestIngestMemory:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        tensor, _ = generate_synthetic(SyntheticSpec(extents=(60, 56, 48), seed=0))
        path = tmp_path_factory.mktemp("io") / "written.csv"
        export(path, tensor, [f"st{l:02d}" for l in range(60)])
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        order = np.random.default_rng(5).permutation(len(rows))
        shuffled = path.with_name("shuffled.csv")
        shuffled.write_text("\n".join([header] + [rows[i] for i in order]) + "\n",
                            encoding="utf-8")
        # only Python's int() reads slot 4_7, so the whole file goes to the row loop
        sid, day, slot, count = rows[-1].split(",")
        assert slot == "47"
        row_loop = path.with_name("row_loop.csv")
        row_loop.write_text("\n".join([header] + rows[:-1] + [f"{sid},{day},4_7,{count}"])
                            + "\n", encoding="utf-8")
        return tensor, {"written": path, "shuffled": shuffled, "row_loop": row_loop}

    @pytest.mark.parametrize("order", ["written", "shuffled", "row_loop"])
    def test_peak_stays_under_four_tensors(self, exported, order):
        # the tensor, its seen-cell mask and one block of records (the row
        # loop: both doubled as stations appear); no per-row array or object
        # over the whole file
        tensor, paths = exported
        tracemalloc.start()
        try:
            back, ids, report = ingest(paths[order], (56, 48))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_rows == tensor.size
        assert np.array_equal(back, tensor[[int(sid[2:]) for sid in ids]])
        assert peak < 4 * tensor.nbytes


class TestExport:
    def test_round_trip_preserves_the_tensor(self, tmp_path):
        rng = np.random.default_rng(0)
        tensor = rng.uniform(0.0, 100.0, size=(3, 4, 5))
        tensor[1, 2, 3] = 1.0 / 3.0  # needs full precision to survive
        path = tmp_path / "out.csv"
        ids = ["s0", "s1", "s2"]
        export(path, tensor, ids)
        back, back_ids, report = ingest(path, (4, 5))
        assert back_ids == ids
        assert np.array_equal(back, tensor)
        assert report.missing_count == 0

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        export(path, np.array([[[1.0 / 3.0, 0.0], [-0.0, 1e-300]]]), ["a"])
        assert path.read_bytes() == (b"station_id,day_index,slot_index,count\r\n"
                                     b"a,0,0,0.3333333333333333\r\n"
                                     b"a,0,1,0.0\r\n"
                                     b"a,1,0,-0.0\r\n"
                                     b"a,1,1,1e-300\r\n")

    @pytest.mark.parametrize("count, kind", [(-1.0, "negative"), (-np.inf, "negative"),
                                             (np.inf, "non-finite"), (np.nan, "non-finite")])
    def test_refuses_a_count_ingest_would_refuse(self, tmp_path, count, kind):
        tensor = np.ones((2, 3, 4))
        tensor[1, 2, 0] = count
        tensor[1, 2, 3] = -5.0  # a later bad cell is not the one named
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=rf"^{kind} count .* for \(s1, 2, 0\)$"):
            export(path, tensor, ["s0", "s1"])
        assert not path.exists()

    def test_shape_and_id_validation(self, tmp_path):
        with pytest.raises(ValueError):
            export(tmp_path / "x.csv", np.zeros((2, 2)), ["a", "b"])
        with pytest.raises(ValueError):
            export(tmp_path / "x.csv", np.zeros((2, 2, 2)), ["a"])
