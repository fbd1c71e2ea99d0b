import csv
import dataclasses
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_read_table
from penpls import (ConfigurationError, DataError, GamModel, ModelFormatError,
                    PenaltySpec, PenplsError, SplineBasis, fit_gam, ingest,
                    ingest_for_model, load_model, make_basis, predict,
                    save_model, transform)
from penpls.model_io import (FORMAT_TAG, _plain_table, _read_table,
                             file_sha256)
from penpls.testkit import SyntheticSpec, gen_additive, write_csv


def fitted_model(seed=0, n=25, p=2):
    X, y, _ = gen_additive(SyntheticSpec(seed, n, p, 0.2, ("sine", "linear")))
    model = fit_gam(X, y, PenaltySpec.shared(2.0, p, 8), 3)
    return X, y, model


class TestIngest:
    def test_round_trip_through_write_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(6, 2))
        y = rng.standard_normal(6)
        path = tmp_path / "data.csv"
        write_csv(path, X, y, ["a", "b"], "target")
        data = ingest(path, "target")
        assert data.predictor_names == ("a", "b")
        assert data.response_name == "target"
        np.testing.assert_array_equal(data.X, X)
        np.testing.assert_array_equal(data.y, y)

    def test_response_column_can_come_first(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,x\n1,10\n2,20\n3,30\n")
        data = ingest(path, "y")
        np.testing.assert_array_equal(data.y, [1, 2, 3])
        np.testing.assert_array_equal(data.X[:, 0], [10, 20, 30])

    def test_missing_response_names_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(DataError, match="'z'.*a, b"):
            ingest(path, "z")

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n3,oops\n5,6\n")
        with pytest.raises(DataError, match="row 2, column 'y'"):
            ingest(path, "y")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\nnan,4\n5,6\n")
        with pytest.raises(DataError, match="row 2, column 'a'"):
            ingest(path, "y")

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999"])
    def test_infinite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"a,y\n1,2\n3,{cell}\n5,6\n")
        with pytest.raises(DataError,
                           match="row 2, column 'y': non-finite value"):
            ingest(path, "y")

    def test_first_fault_in_row_order_is_reported(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n3,oops\n5,6\n7\n")
        with pytest.raises(DataError,
                           match="row 2, column 'y': cannot parse 'oops'"):
            ingest(path, "y")
        path.write_text("a,y\n1,2\n3\n5,oops\n7,8\n")
        with pytest.raises(DataError, match="row 2 has 1 cells, expected 2"):
            ingest(path, "y")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n3\n5,6\n")
        with pytest.raises(DataError, match="row 2"):
            ingest(path, "y")

    def test_duplicate_columns_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,a,y\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(DataError, match=r"\['a'\]"):
            ingest(path, "y")

    def test_too_few_rows_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n3,4\n")
        with pytest.raises(DataError, match="at least 3"):
            ingest(path, "y")

    @pytest.mark.parametrize("text", ["", "\n", "\n\r\n\n"])
    def test_empty_or_blank_file_rejected(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match="empty file"):
            ingest(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(tmp_path / "nope.csv", "y")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,y\n1,2\n3,\xff\n5,6\n")
        with pytest.raises(DataError, match="cannot read .*data.csv"):
            ingest(path, "y")


class TestIngestForModel:
    def test_reorders_to_model_column_order(self, tmp_path):
        path = tmp_path / "new.csv"
        path.write_text("b,a\n1,2\n3,4\n")
        X, y = ingest_for_model(path, ("a", "b"), "y")
        np.testing.assert_array_equal(X, [[2, 1], [4, 3]])
        assert y is None

    def test_response_optional_but_used(self, tmp_path):
        path = tmp_path / "new.csv"
        path.write_text("a,b,y\n1,2,9\n3,4,8\n")
        X, y = ingest_for_model(path, ("a", "b"), "y")
        np.testing.assert_array_equal(y, [9, 8])

    def test_extra_column_named(self, tmp_path):
        path = tmp_path / "new.csv"
        path.write_text("a,b,junk\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError, match=r"\['junk'\]"):
            ingest_for_model(path, ("a", "b"), "y")

    def test_missing_predictor_named(self, tmp_path):
        path = tmp_path / "new.csv"
        path.write_text("a\n1\n2\n")
        with pytest.raises(DataError, match=r"\['b'\]"):
            ingest_for_model(path, ("a", "b"), "y")

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "new.csv"
        path.write_text("a,b\n")
        header, table = _read_table(path)
        assert header == ["a", "b"] and table.shape == (0, 2)
        with pytest.raises(DataError, match="new.csv: no data rows"):
            ingest_for_model(path, ("a", "b"), "y")


class TestModelFile:
    def test_round_trip_predictions_bit_identical(self, tmp_path):
        X, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y")
        loaded, predictors, response = load_model(path)
        assert predictors == ("u", "v")
        assert response == "y"
        np.testing.assert_array_equal(predict(loaded, X), predict(model, X))

    def test_round_trip_fields(self, tmp_path):
        _, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y", dataset_checksum="abc")
        loaded, _, _ = load_model(path)
        assert loaded.intercept == model.intercept
        assert loaded.n_components == model.n_components
        assert loaded.requested_components == model.requested_components
        assert loaded.penalty.order == model.penalty.order
        np.testing.assert_array_equal(loaded.penalty.lambdas,
                                      model.penalty.lambdas)
        np.testing.assert_array_equal(loaded.beta, model.beta)
        np.testing.assert_array_equal(loaded.z_means, model.z_means)
        for a, b in zip(loaded.bases, model.bases):
            assert a.degree == b.degree
            np.testing.assert_array_equal(a.knots, b.knots)

    def test_scaled_file_from_earlier_version_loads(self, tmp_path):
        # earlier versions could store beta fitted to y / s with
        # "response_scale = s"; predictions were then intercept + s * Zc beta
        X, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y")
        text = path.read_text()
        assert "\nresponse_scale = none\n" in text
        path.write_text(text.replace("\nresponse_scale = none\n",
                                     "\nresponse_scale = 0.5\n"))
        loaded, _, _ = load_model(path)
        # a loaded scale s means the model with s * beta, predicted by the
        # one scorer bit for bit; the dense formula agrees to rounding
        halved = dataclasses.replace(model, beta=0.5 * model.beta)
        np.testing.assert_array_equal(predict(loaded, X), predict(halved, X))
        Zc = transform(X, model.expansion) - model.z_means
        np.testing.assert_allclose(
            predict(loaded, X), model.intercept + 0.5 * (Zc @ model.beta),
            rtol=1e-12)

        path.write_text(text.replace("\nresponse_scale = none\n", "\n"))
        with pytest.raises(ModelFormatError, match="response_scale"):
            load_model(path)

    def test_version_tag_is_first_line(self, tmp_path):
        _, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y")
        assert path.read_text().splitlines()[0] == FORMAT_TAG

    def test_undecodable_file_refused(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"\xff\n")
        with pytest.raises(DataError, match="cannot read .*m.txt"):
            load_model(path)

    def test_unknown_tag_refused(self, tmp_path):
        _, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y")
        lines = path.read_text().splitlines()
        lines[0] = "penpls-model-v999"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="v999"):
            load_model(path)

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_key_refused(self, tmp_path):
        _, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y")
        kept = [ln for ln in path.read_text().splitlines()
                if not ln.startswith("beta ")]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ModelFormatError, match="beta"):
            load_model(path)

    def test_repeated_key_refused(self, tmp_path):
        _, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y")
        lines = path.read_text().splitlines()
        beta = next(ln for ln in lines if ln.startswith("beta "))
        path.write_text("\n".join(lines + [beta]) + "\n")
        with pytest.raises(ModelFormatError, match="repeated .*'beta'"):
            load_model(path)

    def test_blank_lines_between_keys_are_skipped(self, tmp_path):
        _, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\n")
        loaded, predictors, response = load_model(path)
        assert (predictors, response) == (("u", "v"), "y")
        np.testing.assert_array_equal(loaded.beta, model.beta)

    def test_garbled_number_refused(self, tmp_path):
        _, _, model = fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model, ("u", "v"), "y")
        text = path.read_text().replace("intercept = ", "intercept = x")
        path.write_text(text)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_name_count_mismatch_on_save(self, tmp_path):
        _, _, model = fitted_model()
        with pytest.raises(ModelFormatError):
            save_model(tmp_path / "m.txt", model, ("only_one",), "y")

    @pytest.mark.parametrize("names,response", [
        (("a,b", "v"), "y"), (("u", "v\n"), "y"), (("u\r\nw", "v"), "y"),
        (("u", "v\u2028"), "y"), (("u", "v"), "y\nz"),
        ((" u", "v "), " y "), ((" u", "v"), "y"), (("u", "v\t"), "y"),
        (("u", "v"), "y ")])
    def test_unstorable_name_refused_before_writing(self, tmp_path, names,
                                                    response):
        _, _, model = fitted_model()
        path = tmp_path / "m.txt"
        with pytest.raises(ModelFormatError, match="cannot be stored"):
            save_model(path, model, names, response)
        assert not path.exists()

    def test_response_name_may_hold_a_comma(self, tmp_path):
        X, _, model = fitted_model()
        path = tmp_path / "m.txt"
        save_model(path, model, ("u", "v"), "y,z")
        loaded, names, response = load_model(path)
        assert (names, response) == (("u", "v"), "y,z")
        np.testing.assert_array_equal(predict(loaded, X), predict(model, X))

    @pytest.mark.parametrize("key,drop", [
        ("beta", 3), ("z_means", 1), ("lambdas", 1), ("knots.1", 2)])
    def test_truncated_array_refused(self, tmp_path, key, drop):
        _, _, model = fitted_model()
        path = tmp_path / "m.txt"
        save_model(path, model, ("u", "v"), "y")
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            name, _, values = line.partition(" = ")
            if name == key:
                lines[i] = f"{name} = " + ",".join(values.split(",")[:-drop])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=f"{key} has"):
            load_model(path)

    @pytest.mark.parametrize("j,end", [(0, 0), (1, 0), (1, -1)])
    def test_unclamped_knots_refused(self, tmp_path, j, end):
        # an end knot moved outward: the right count, still sorted, but
        # the end is no longer repeated degree + 1 times
        _, _, model = fitted_model()
        path = tmp_path / "m.txt"
        save_model(path, model, ("u", "v"), "y")
        knots = model.bases[j].knots.copy()
        knots[end] += 1.0 if end else -1.0
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith(f"knots.{j} = "):
                lines[i] = f"knots.{j} = " + ",".join(map(str, knots.tolist()))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=f"knots.{j}: .*clamped"):
            load_model(path)

    @pytest.mark.parametrize("key,bad", [
        ("beta", "nan"), ("beta", "inf"), ("z_means", "-inf"),
        ("intercept", "nan"), ("knots.1", "nan"), ("lambdas", "inf"),
        ("response_scale", "nan")])
    def test_non_finite_number_refused(self, tmp_path, key, bad):
        # a non-finite number would make every prediction NaN or infinite
        _, _, model = fitted_model()
        path = tmp_path / "m.txt"
        save_model(path, model, ("u", "v"), "y")
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            name, _, values = line.partition(" = ")
            if name == key:
                lines[i] = f"{name} = " + ",".join(
                    [bad] + values.split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("degrees,sizes", [((3, 1), (8, 8)),
                                               ((3, 3), (8, 7))])
    def test_mixed_basis_shapes_refused_before_writing(self, tmp_path,
                                                       degrees, sizes):
        # the file holds one degree and n_basis: a model of a second
        # degree or size is refused when it is built, so no such model
        # reaches save_model
        X, _, model = fitted_model()
        bases = tuple(make_basis(X[:, j], k, degree)
                      for j, (degree, k) in enumerate(zip(degrees, sizes)))
        with pytest.raises(ConfigurationError,
                           match="one degree and one size"):
            dataclasses.replace(model, bases=bases)

    def test_extra_array_value_refused(self, tmp_path):
        _, _, model = fitted_model()
        path = tmp_path / "m.txt"
        save_model(path, model, ("u", "v"), "y")
        text = path.read_text().replace("\nbeta = ", "\nbeta = 0.0,")
        path.write_text(text)
        with pytest.raises(ModelFormatError, match="beta has"):
            load_model(path)


VALUES = st.floats(-1e100, 1e100, allow_nan=False)  # subnormals included
NAMES = st.text(max_size=8)


@st.composite
def random_models(draw):
    """A GamModel with random shape, knots, weights, means and beta."""
    p = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    n_basis = draw(st.integers(max(degree + 1, 2), 7))
    lo = draw(st.floats(-1e6, 1e6))
    width = draw(st.floats(1e-3, 1e6))
    bases = []
    for _ in range(p):
        inner = sorted(draw(st.lists(st.floats(0.0, 1.0),
                                     min_size=n_basis - degree - 1,
                                     max_size=n_basis - degree - 1)))
        knots = np.concatenate([np.full(degree + 1, lo), lo + width *
                                np.array(inner, dtype=float),
                                np.full(degree + 1, lo + width)])
        bases.append(SplineBasis(degree, knots))
    lambdas = draw(st.lists(st.floats(0.0, 1e300), min_size=p, max_size=p))
    arrays = st.lists(VALUES, min_size=p * n_basis, max_size=p * n_basis)
    requested = draw(st.integers(1, 20))
    return GamModel(
        bases=tuple(bases),
        penalty=PenaltySpec(np.array(lambdas), draw(
            st.integers(1, n_basis - 1)), n_basis),
        beta=np.array(draw(arrays)), intercept=draw(VALUES),
        z_means=np.array(draw(arrays)),
        n_components=draw(st.integers(0, requested)),
        requested_components=requested)


EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                               2.2250738585072014e-308, 1e308, -1e308,
                               1.7976931348623157e308])
CELLS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_VALUES


class TestCsvRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda p: st.lists(
        st.lists(CELLS, min_size=p + 1, max_size=p + 1),
        min_size=3, max_size=8)))
    def test_written_doubles_read_back_bit_for_bit(self, rows):
        table = np.array(rows, dtype=float)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            write_csv(path, table[:, :-1], table[:, -1])
            data = ingest(path, "y")
        assert np.array_equal(data.X.view(np.int64),
                              table[:, :-1].view(np.int64))
        assert np.array_equal(data.y.view(np.int64),
                              table[:, -1].view(np.int64))


def read_outcome(read, path):
    """What ``read(path)`` gives: the header, shape and bits of its table,
    or the type and message of what it raises."""
    try:
        header, table = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return header, table.shape, table.view(np.int64).tolist()


# files that each guard of model_io._plain_table sends to the csv path,
# and files that it reads itself
ODD_FILES = {
    "quoted cell": b'a,y\n"1",2\n3,4\n5,6\n',
    "quoted header": b'"a,b",y\n1,2\n3,4\n',
    "quoted name": b'"a",y\n1,2\n3,4\n',
    "quoted bad cell": b'a,y\n1,"x"\n',
    "underscore": b"a,y\n1_0,2\n3,4\n",
    "whitespace row, one column": b"y\n1\n \n2\n",
    "whitespace row, two columns": b"a,y\n1,2\n \n3,4\n",
    "blank lines": b"\na,y\n\n1,2\n\n\n3,4\n\n",
    "crlf": b"a,y\r\n1,2\r\n3,4\r\n",
    "crlf blank lines": b"\r\na,y\r\n\r\n1,2\r\n\r\n3,4",
    "mixed endings": b"a,y\n1,2\r\n3,4\n5,6\r\n",
    "lf then crlf": b"a,y\n1,2\n\r\n3,4\n",
    "cr before crlf": b"a,y\r\r\n1,2\r\n",
    "lone cr": b"a,y\r1,2\r3,4\r",
    "cr in a cell": b"a,y\n1\r,2\n",
    "hash cell": b"a,y\n#3,2\n3,4\n",
    "hash header": b"#a,y\n1,2\n",
    "bom": "\ufeffa,y\n1,2\n3,4\n".encode(),
    "bom in body": "a,y\n\ufeff1,2\n".encode(),
    "nul in cell": b"a,y\n1\x00,2\n3,4\n",
    "nul in header": b"a\x00,y\n1,2\n",
    "information separator": b"a,y\n1\x1c,2\n",
    "unit separator": b"a,y\n\x1f1,2\n",
    "form feed": b"a,y\n1\x0c,2\x0b\n",
    "next line": "a,y\n1\x85,2\n3,4\u2028\n".encode(),
    "vertical tab in a cell": "y\n1\x0b2\n3\n".encode(),
    "form feed in a cell": "y\n1\x0c2\n3\n".encode(),
    "next line in a cell": "y\n1\x852\n3\n".encode(),
    "line separator in a cell": "y\n1\u20282\n3\n".encode(),
    "paragraph separator in a cell": "y\n1\u20292\n3\n".encode(),
    "unicode space": "a,y\n1\u2003,\xa02\n".encode(),
    "unicode digits": "a,y\n\u0661,2\n".encode(),
    "inf": b"a,y\n1,2\ninf,4\n",
    "nan": b"a,y\n1,2\n3,nan\n",
    "1e999": b"a,y\n1,2\n3,-1e999\n",
    "number forms": b"a , y\n +1 ,.5\n\t-0\t,1E+05\n5.,-5e-324\n",
    "trailing comma": b"a,y\n1,2,\n3,4\n",
    "trailing comma everywhere": b"a,y,\n1,2,\n",
    "empty cell": b"a,y\n1,\n",
    "ragged row": b"a,y\n1,2\n3\n4,5\n",
    "long row": b"a,y\n1,2,3\n",
    "header only": b"a,y\n",
    "header only, crlf": b"a,y\r\n\r\n",
    "duplicate header": b"a,a\n1,2\n",
    "empty": b"",
    "blank": b"\n\r\n\n",
    "one row": b"a,y\n1,2\n",
    "one column": b"y\n1\n2\n3",
    "space in a cell": b"a,y\n1 2,3\n",
    "hex": b"a,y\n0x10,2\n",
    "undecodable": b"a,y\n1,\xff\n",
}


class TestReadTableOracle:
    """``_read_table`` against the csv-only reader in ``conftest``."""

    @pytest.mark.parametrize("blob", ODD_FILES.values(), ids=ODD_FILES)
    def test_odd_files_read_as_the_reference_reads_them(self, tmp_path,
                                                        blob):
        path = tmp_path / "data.csv"
        path.write_bytes(blob)
        assert (read_outcome(_read_table, path)
                == read_outcome(reference_read_table, path))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.tuples(
               CELLS, st.sampled_from([repr, "{:.17g}".format, "%.6e".__mod__]),
               st.booleans()), min_size=2, max_size=2),
           min_size=1, max_size=8),
           st.sampled_from(["\n", "\r\n", "mixed"]), st.randoms())
    def test_written_doubles_read_as_the_reference_reads_them(
            self, rows, ending, rnd):
        # each cell written in one of three forms, and quoted or not;
        # blank lines anywhere
        def line_end():
            return rnd.choice(["\n", "\r\n"]) if ending == "mixed" else ending

        text = "a,y" + line_end()
        for row in rows:
            text += line_end() * rnd.randint(0, 1)
            text += ",".join(f'"{fmt(v)}"' if quoted else fmt(v)
                             for v, fmt, quoted in row) + line_end()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            expect = read_outcome(reference_read_table, path)
            assert read_outcome(_read_table, path) == expect
        table = np.array([[float(fmt(v)) for v, fmt, _ in row]
                          for row in rows])
        assert expect[2] == table.view(np.int64).tolist()
        # files without quotes take the C parser
        plain = not any(quoted for row in rows for _, _, quoted in row)
        assert (_plain_table(text) is not None) == plain

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from(
        list("0123456789.,eE+-_ \t\r\n\"#infa") +
        ["\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
         "\xa0", "\u2003", "\u2028", "\u0661", "\ufeff"]), max_size=40))
    def test_any_text_reads_as_the_reference_reads_it(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", newline="") as fh:
                fh.write("a,y\n" + body)
            assert (read_outcome(_read_table, path)
                    == read_outcome(reference_read_table, path))


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(random_models(), st.lists(NAMES, min_size=3, max_size=3), NAMES,
           st.integers(0, 2**32 - 1))
    def test_any_saved_model_reloads_and_predicts_bit_identically(
            self, model, names, response, seed):
        names = names[:model.n_variables]
        lo, hi = model.bases[0].domain
        rng = np.random.default_rng(seed)
        # rows inside the domain and beyond both ends of it
        X = lo + (hi - lo) * rng.uniform(-0.2, 1.2, (6, model.n_variables))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.txt")
            try:
                save_model(path, model, names, response)
            except ModelFormatError:
                # refused only for names the format cannot hold
                assert any("," in n for n in names) or any(
                    n.strip() != n or len(n.splitlines()) > 1
                    for n in (*names, response))
                assert not os.path.exists(path)
                return
            loaded, got_names, got_response = load_model(path)
        assert (got_names, got_response) == (tuple(names), response)
        for a, b in zip(loaded.bases, model.bases, strict=True):
            np.testing.assert_array_equal(a.knots, b.knots)
        for field in ("beta", "z_means"):
            np.testing.assert_array_equal(getattr(loaded, field),
                                          getattr(model, field))
        np.testing.assert_array_equal(loaded.penalty.lambdas,
                                      model.penalty.lambdas)
        assert loaded.intercept == model.intercept
        assert loaded.penalty.order == model.penalty.order
        assert (loaded.n_components, loaded.requested_components) == (
            model.n_components, model.requested_components)
        np.testing.assert_array_equal(predict(loaded, X), predict(model, X))


    @settings(max_examples=100, deadline=None)
    @given(random_models())
    def test_every_model_save_accepts_loads_back(self, model):
        # every model of storable names is written: its bases share the
        # file's one degree and n_basis
        names = ("u", "v", "w")[:model.n_variables]
        lo, hi = model.bases[0].domain
        X = np.linspace(lo - (hi - lo) / 10, hi + (hi - lo) / 10, 7)
        X = X[:, None].repeat(model.n_variables, 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.txt")
            save_model(path, model, names, "y")
            loaded, _, _ = load_model(path)
        for a, b in zip(loaded.bases, model.bases, strict=True):
            assert (a.degree, a.n_basis) == (b.degree, b.n_basis)
            np.testing.assert_array_equal(a.knots, b.knots)
        np.testing.assert_array_equal(predict(loaded, X), predict(model, X))


TIED_CELLS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 3.0])
DATA_CELLS = TIED_CELLS | st.floats(-10.0, 10.0)
LONG_NAMES = st.text(max_size=8) | st.text("abc_ .-\u00e9\u4e2d", min_size=100,
                                            max_size=300)


@st.composite
def training_tables(draw):
    """An (n, p) X and an n-vector y of tied, signed-zero and free cells,
    each column and the response at a scale from 1e-300 to 1e300."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(3, 12))
    table = np.array(draw(st.lists(st.lists(DATA_CELLS, min_size=p + 1,
                                            max_size=p + 1),
                                   min_size=n, max_size=n)))
    scales = 10.0 ** np.array(draw(st.lists(
        st.sampled_from([-300, -150, 0, 150, 300]) | st.integers(-5, 5),
        min_size=p + 1, max_size=p + 1)))
    table = table * scales  # -0.0 stays -0.0
    return table[:, :-1], table[:, -1]


class TestFitRoundTripProperty:
    """Whatever ``ingest`` accepts and ``fit_gam`` fits, ``save_model``
    writes, ``load_model`` reads back, and the reloaded model predicts
    bit for bit what the fitted one does."""

    @settings(max_examples=60, deadline=None)
    @given(training_tables(), st.lists(LONG_NAMES, min_size=4, max_size=4),
           st.sampled_from([0.0, 1.0, 1e6]), st.integers(4, 6),
           st.integers(1, 4))
    def test_fitted_model_reloads_and_predicts_bit_identically(
            self, table, names, lam, n_basis, m):
        X, y = table
        p = X.shape[1]
        with tempfile.TemporaryDirectory() as tmp:
            data_path = os.path.join(tmp, "data.csv")
            write_csv(data_path, X, y, names[:p], names[p])
            try:
                data = ingest(data_path, names[p].strip())
                model = fit_gam(data.X, data.y,
                                PenaltySpec.shared(lam, p, n_basis), m)
            except PenplsError:
                return  # not accepted or not fitted: nothing to save
            path = os.path.join(tmp, "m.txt")
            try:
                save_model(path, model, data.predictor_names,
                           data.response_name)
            except ModelFormatError:
                # refused only for names the format cannot hold
                assert any("," in n or len(n.splitlines()) > 1
                           for n in data.predictor_names) or \
                    len(data.response_name.splitlines()) > 1
                assert not os.path.exists(path)
                return
            loaded, got_names, got_response = load_model(path)
        assert (got_names, got_response) == (data.predictor_names,
                                             data.response_name)
        lo, hi = np.min(X, axis=0), np.max(X, axis=0)
        beyond = np.stack([lo - (hi - lo) / 4, hi + (hi - lo) / 4])
        for rows in (X, beyond):
            assert predict(loaded, rows).view(np.int64).tolist() == \
                predict(model, rows).view(np.int64).tolist()


class TestChecksum:
    def test_sha256_matches_hashlib(self, tmp_path):
        import hashlib
        path = tmp_path / "blob.bin"
        path.write_bytes(b"hello world\n" * 100)
        assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
