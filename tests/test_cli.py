import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import explicit_folds
from penpls import (PenaltySpec, default_lambda_grid, fit_gam,
                    fitted_function, load_model, loocv, predict)
from penpls.cli import build_parser, main
from penpls.testkit import SyntheticSpec, gen_additive, write_csv


@pytest.fixture()
def dataset(tmp_path):
    X, y, _ = gen_additive(SyntheticSpec(0, 25, 2, 0.2, ("sine", "linear")))
    path = tmp_path / "train.csv"
    write_csv(path, X, y, ["temp", "load"], "out")
    return path, X, y


def run_fit(dataset, tmp_path, *extra):
    data, _, _ = dataset
    model_path = tmp_path / "model.txt"
    code = main(["fit", "--data", str(data), "--response", "out",
                 "--lambda", "2.0", "--components", "3",
                 "--basis-size", "8", "--output", str(model_path), *extra])
    assert code == 0
    return model_path


class TestFit:
    def test_writes_model_matching_api(self, dataset, tmp_path, capsys):
        model_path = run_fit(dataset, tmp_path)
        _, X, y = dataset
        loaded, predictors, response = load_model(model_path)
        assert predictors == ("temp", "load")
        assert response == "out"
        expect = fit_gam(X, y, PenaltySpec.shared(2.0, 2, 8), 3)
        np.testing.assert_array_equal(predict(loaded, X), predict(expect, X))
        out = capsys.readouterr().out
        rmse = float(out.split("training_rmse = ")[1].splitlines()[0])
        assert rmse == pytest.approx(
            np.sqrt(np.mean((y - expect.fitted) ** 2)))

    def test_early_stop_warning_printed(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(10, 1))
        y = x[:, 0] + 0.01 * rng.standard_normal(10)
        data = tmp_path / "tiny.csv"
        write_csv(data, x, y, ["x"], "y")
        code = main(["fit", "--data", str(data), "--response", "y",
                     "--basis-size", "4", "--components", "30",
                     "--output", str(tmp_path / "m.txt")])
        assert code == 0
        assert "warning = early stop" in capsys.readouterr().out

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--response", "y", "--output", str(tmp_path / "m.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_data_file_exits_one(self, tmp_path, capsys):
        data = tmp_path / "latin.csv"
        data.write_bytes(b"x,y\n0.1,1\n0.5,\xff\n0.9,3\n")
        code = main(["fit", "--data", str(data), "--response", "y",
                     "--output", str(tmp_path / "m.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "latin.csv" in err

    def test_comma_in_predictor_name_exits_one(self, tmp_path, capsys):
        X, y, _ = gen_additive(SyntheticSpec(0, 25, 2, 0.2, ("sine", "linear")))
        data = tmp_path / "quoted.csv"
        write_csv(data, X, y, ["a,b", "c"], "out")
        assert data.read_text().startswith('"a,b",c,out')
        model_path = tmp_path / "m.txt"
        code = main(["fit", "--data", str(data), "--response", "out",
                     "--basis-size", "8", "--output", str(model_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not model_path.exists()

    def test_bad_flag_value_exits_two(self, dataset, tmp_path):
        data, _, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(data), "--response", "out",
                  "--components", "0", "--output", str(tmp_path / "m.txt")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_two(self, dataset, tmp_path, lam):
        data, _, _ = dataset
        model_path = tmp_path / "m.txt"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(data), "--response", "out",
                  "--lambda", lam, "--output", str(model_path)])
        assert exc.value.code == 2
        assert not model_path.exists()

    @pytest.mark.parametrize("scale", [1e154, 1e-165])
    def test_extreme_response_scale_fits(self, tmp_path, capsys, scale):
        X, y, _ = gen_additive(SyntheticSpec(0, 25, 2, 0.2, ("sine", "linear")))
        data = tmp_path / "scaled.csv"
        write_csv(data, X, y * scale, ["a", "b"], "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["fit", "--data", str(data), "--response", "out",
                         "--basis-size", "8", "--components", "3",
                         "--output", str(tmp_path / "m.txt")])
        assert code == 0
        assert "components = 3" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1e300, 1e-165])
    def test_error_summaries_at_extreme_scales(self, tmp_path, capsys, scale):
        # squared residuals of y * 1e300 overflow and of y * 1e-165
        # underflow to zero; the RMSE lines must follow the response's scale
        X, y, _ = gen_additive(SyntheticSpec(0, 25, 2, 0.2, ("sine", "linear")))
        rmse = {}
        for factor in (1.0, scale):
            data = tmp_path / f"y{factor}.csv"
            model = tmp_path / f"m{factor}.txt"
            write_csv(data, X, y * factor, ["a", "b"], "out")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["fit", "--data", str(data), "--response", "out",
                             "--basis-size", "8", "--components", "3",
                             "--output", str(model)]) == 0
                assert main(["predict", "--model", str(model),
                             "--data", str(data)]) == 0
            captured = capsys.readouterr()
            rmse[factor] = (
                float(captured.out.split("training_rmse = ")[1].split()[0]),
                float(captured.err.split("rmse = ")[1].split()[0]))
        for got, plain in zip(rmse[scale], rmse[1.0]):
            assert 0.0 < got < np.inf
            assert got == pytest.approx(scale * plain, rel=1e-12)

    @pytest.mark.parametrize("command", [["fit", "--output", "m.txt"], ["cv"]],
                             ids=["fit", "cv"])
    def test_normalize_response_flag_is_gone(self, dataset, command):
        data, _, _ = dataset
        argv = [*command, "--data", str(data), "--response", "out"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--normalize-response"])
        assert exc.value.code == 2
        assert build_parser().parse_args(argv).command == command[0]

    def test_huge_lambda_fits(self, dataset, tmp_path):
        run_fit(dataset, tmp_path, "--lambda", "1e300")

    def test_overflowing_lambda_exits_one(self, dataset, tmp_path, capsys):
        data, _, _ = dataset
        code = main(["fit", "--data", str(data), "--response", "out",
                     "--lambda", "1e308", "--output", str(tmp_path / "m.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err

    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError("singular"),
                                     FloatingPointError("overflow")])
    def test_numeric_error_exits_one(self, dataset, tmp_path, capsys,
                                     monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr("penpls.cli.fit_gam", fail)
        data, _, _ = dataset
        code = main(["fit", "--data", str(data), "--response", "out",
                     "--output", str(tmp_path / "m.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestCv:
    def test_grid_output_matches_api(self, dataset, capsys):
        data, X, y = dataset
        code = main(["cv", "--data", str(data), "--response", "out",
                     "--lambda-grid", "0.5,50.0", "--max-components", "2",
                     "--basis-size", "6"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lambda,1,2"
        grid, choice = loocv(X, y, lambdas=[0.5, 50.0], max_components=2,
                             n_basis=6)
        for line, lam, row in zip(lines[1:3], grid.lambdas, grid.errors):
            cells = [float(v) for v in line.split(",")]
            assert cells[0] == lam
            np.testing.assert_array_equal(cells[1:], row)
        assert lines[3] == (f"chosen: lambda={choice.lambda_opt!r}, "
                            f"m={choice.m_opt}, loo={choice.loo_error!r}")

    def test_default_grid_is_loocvs(self, dataset, capsys):
        # without --lambda-grid, cv scores loocv's own default grid
        data, X, y = dataset
        code = main(["cv", "--data", str(data), "--response", "out",
                     "--max-components", "2", "--basis-size", "6"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[21].startswith("chosen: ")  # 20 rows, one per lambda
        cells = np.array([[float(v) for v in ln.split(",")]
                          for ln in lines[1:21]])
        np.testing.assert_array_equal(cells[:, 0], default_lambda_grid())
        grid, _ = loocv(X, y, max_components=2, n_basis=6)
        np.testing.assert_array_equal(cells[:, 1:], grid.errors)

    def test_bad_lambda_grid_exits_two(self, dataset):
        data, _, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--data", str(data), "--response", "out",
                  "--lambda-grid", "1.0,-3.0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("grid", ["1.0,nan", "inf", "-inf,2.0"])
    def test_non_finite_lambda_grid_exits_two(self, dataset, grid):
        data, _, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--data", str(data), "--response", "out",
                  "--lambda-grid", grid])
        assert exc.value.code == 2

    def test_early_stop_warning_printed(self, tmp_path, capsys):
        # 7 training rows cannot carry 8 components
        X, y, _ = gen_additive(SyntheticSpec(1, 8, 2, 0.2,
                                             ("sine", "linear")))
        data = tmp_path / "tiny.csv"
        write_csv(data, X, y, ["a", "b"], "y")
        code = main(["cv", "--data", str(data), "--response", "y",
                     "--lambda-grid", "0.5,50.0", "--max-components", "8",
                     "--basis-size", "5"])
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        grid, _ = loocv(X, y, lambdas=[0.5, 50.0], max_components=8,
                        n_basis=5)
        assert grid.early_stops.tolist() == [8, 8]
        assert last == ("warning = early stop before 8 components in 16 "
                        "fold fits (lambda=0.5: 8, lambda=50.0: 8)")

    def test_constant_fold_exits_zero_with_warning(self, tmp_path, capsys):
        # the fold holding out row 3 has an all-zero response
        X, _, _ = gen_additive(SyntheticSpec(2, 8, 2, 0.2,
                                             ("sine", "linear")))
        y = np.zeros(8)
        y[3] = 1.0
        data = tmp_path / "one_event.csv"
        write_csv(data, X, y, ["a", "b"], "y")
        code = main(["cv", "--data", str(data), "--response", "y",
                     "--lambda-grid", "1,10", "--max-components", "3",
                     "--basis-size", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("warning = early stop before 3 ")
        errors, _ = explicit_folds(X, y, [1.0, 10.0], 3, 5)
        cells = np.array([[float(v) for v in line.split(",")]
                          for line in lines[1:3]])
        np.testing.assert_array_equal(cells[:, 0], [1.0, 10.0])
        np.testing.assert_allclose(cells[:, 1:], errors, rtol=1e-10)

    def test_no_warning_without_early_stops(self, dataset, capsys):
        data, _, _ = dataset
        main(["cv", "--data", str(data), "--response", "out",
              "--lambda-grid", "0.5", "--max-components", "2",
              "--basis-size", "6"])
        assert "warning" not in capsys.readouterr().out


class TestPredict:
    def test_stdout_reparses_to_api_predictions(self, dataset, tmp_path, capsys):
        model_path = run_fit(dataset, tmp_path)
        capsys.readouterr()  # discard the fit command's report
        data, X, _ = dataset
        code = main(["predict", "--model", str(model_path),
                     "--data", str(data)])
        assert code == 0
        captured = capsys.readouterr()
        got = np.array([float(v) for v in captured.out.split()])
        loaded, _, _ = load_model(model_path)
        np.testing.assert_array_equal(got, predict(loaded, X))
        # response column present, so the rmse line goes to stderr
        assert captured.err.startswith("rmse = ")

    def test_output_file_and_no_response(self, dataset, tmp_path, capsys):
        model_path = run_fit(dataset, tmp_path)
        capsys.readouterr()  # discard the fit command's report
        _, X, _ = dataset
        new = tmp_path / "new.csv"
        with open(new, "w") as fh:
            fh.write("temp,load\n")
            for row in X[:4]:
                fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")
        out = tmp_path / "preds.txt"
        code = main(["predict", "--model", str(model_path),
                     "--data", str(new), "--output", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        loaded, _, _ = load_model(model_path)
        # one line per row, each value to 17 significant digits
        expect = predict(loaded, X[:4])
        assert out.read_text() == "".join(f"{v:.17g}\n" for v in expect)
        got = np.array([float(v) for v in out.read_text().split()])
        np.testing.assert_array_equal(got, expect)

    def test_truncated_beta_exits_one(self, dataset, tmp_path, capsys):
        model_path = run_fit(dataset, tmp_path)
        data, _, _ = dataset
        lines = model_path.read_text().splitlines()
        lines = [ln.rsplit(",", 3)[0] if ln.startswith("beta = ") else ln
                 for ln in lines]
        model_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path),
                     "--data", str(data)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "beta has 13 values" in err

    def test_non_finite_beta_exits_one(self, dataset, tmp_path, capsys):
        model_path = run_fit(dataset, tmp_path)
        data, _, _ = dataset
        lines = ["beta = nan," + ln.split(",", 1)[1]
                 if ln.startswith("beta = ") else ln
                 for ln in model_path.read_text().splitlines()]
        model_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path),
                     "--data", str(data)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "beta has non-finite" in err

    def test_extra_column_exits_one(self, dataset, tmp_path, capsys):
        model_path = run_fit(dataset, tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("temp,load,junk\n0.5,0.5,1\n")
        code = main(["predict", "--model", str(model_path),
                     "--data", str(bad)])
        assert code == 1
        assert "junk" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["temp,load\n", "temp,load,out\n"],
                             ids=["predictors", "with_response"])
    def test_header_only_file_exits_one(self, dataset, tmp_path, capsys,
                                        header):
        model_path = run_fit(dataset, tmp_path)
        capsys.readouterr()  # discard the fit command's report
        empty = tmp_path / "empty.csv"
        empty.write_text(header)
        code = main(["predict", "--model", str(model_path),
                     "--data", str(empty)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "no data rows" in captured.err


class TestCurves:
    def test_files_reproduce_fitted_functions(self, dataset, tmp_path, capsys):
        model_path = run_fit(dataset, tmp_path)
        out_dir = tmp_path / "curves"
        code = main(["curves", "--model", str(model_path),
                     "--output-dir", str(out_dir), "--grid-size", "40"])
        assert code == 0
        loaded, predictors, _ = load_model(model_path)
        printed = capsys.readouterr().out.split()
        for j, name in enumerate(predictors):
            path = out_dir / f"curve_{name}.csv"
            assert str(path) in printed
            lines = path.read_text().splitlines()
            assert lines[0] == "x,f"
            table = np.array([[float(v) for v in ln.split(",")]
                              for ln in lines[1:]])
            fn = fitted_function(loaded, j, 40)
            assert table.shape == (40, 2)
            np.testing.assert_array_equal(table[:, 0], fn.grid)
            np.testing.assert_array_equal(table[:, 1], fn.values)

    def test_range_wider_than_the_largest_double(self, tmp_path, capsys):
        # a column from -1e308 to 1e308: its grid's width overflows
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.0, 1.0, size=(30, 2))
        X[:, 1] = rng.uniform(-1e307, 1e307, size=30)
        X[:2, 1] = -1e308, 1e308
        data = tmp_path / "wide.csv"
        write_csv(data, X, np.sin(3 * X[:, 0]), ["u", "v"], "out")
        # at 6 functions a cubic's knot spans reach across 0 and overflow
        for size in ("6", "8"):
            model_path = tmp_path / f"model{size}.txt"
            assert main(["fit", "--data", str(data), "--response", "out",
                         "--basis-size", size,
                         "--output", str(model_path)]) == 0
            out_dir = tmp_path / f"curves{size}"
            assert main(["curves", "--model", str(model_path),
                         "--output-dir", str(out_dir),
                         "--grid-size", "9"]) == 0
            lines = (out_dir / "curve_v.csv").read_text().splitlines()[1:]
            table = np.array([[float(v) for v in ln.split(",")]
                              for ln in lines])
            assert table[0, 0] == -1e308 and table[-1, 0] == 1e308
            assert np.isfinite(table).all()

    def test_missing_model_exits_one(self, tmp_path, capsys):
        code = main(["curves", "--model", str(tmp_path / "nope.txt"),
                     "--output-dir", str(tmp_path / "d")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a/b", "../up", "/abs", "..", "a\x00b",
                                      ".hidden", "a b"])
    def test_nothing_is_written_outside_the_output_dir(self, tmp_path, capsys,
                                                       name):
        # a predictor name with a path separator or a NUL is refused
        # before any file is written; every other name stays in the dir
        X, y, _ = gen_additive(SyntheticSpec(0, 25, 2, 0.2,
                                             ("sine", "linear")))
        write_csv(tmp_path / "train.csv", X, y, [name, "b"], "y")
        assert main(["fit", "--data", str(tmp_path / "train.csv"),
                     "--response", "y", "--basis-size", "6", "--output",
                     str(tmp_path / "model.txt")]) == 0
        capsys.readouterr()
        before = set(tmp_path.rglob("*"))
        out_dir = tmp_path / "out" / "curves"
        code = main(["curves", "--model", str(tmp_path / "model.txt"),
                     "--output-dir", str(out_dir), "--grid-size", "5"])
        err = capsys.readouterr().err
        new = set(tmp_path.rglob("*")) - before
        if "/" in name or "\x00" in name:
            assert code == 1
            assert err.startswith("error:") and "predictor names" in err
            assert not new
        else:
            assert code == 0
            assert new - {tmp_path / "out", out_dir} == {
                out_dir / f"curve_{n}.csv" for n in (name, "b")}


# what a mutation writes in place of a span of a file: numbers the parsers
# must refuse or carry, separators, a byte that is not UTF-8, nothing
PAYLOADS = [b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"1e999", b"-0.0",
            b"5e-324", b"3e200", b"0", b"-1", b"1" * 40, b"abc", b"", b",",
            b"\n", b" = ", b"\xff"]
# a first predictor name: plain, with a path separator, with ".." parts,
# with a NUL
FUZZ_NAMES = [b"a", b"a/b", b"../a", b"..", b"/a", b"a\x00b"]
EDITS = st.lists(st.tuples(
    st.sampled_from(["replace", "delete", "truncate", "duplicate line",
                     "drop line", "byte"]),
    st.integers(0, 2_000), st.integers(0, 30), st.sampled_from(PAYLOADS),
    st.integers(0, 255)), min_size=1, max_size=3)


def mutate(blob: bytes, edits) -> bytes:
    """``blob`` after each edit in turn; positions wrap around its length."""
    for kind, at, span, payload, byte in edits:
        at %= len(blob) + 1
        end = min(len(blob), at + span)
        lines = blob.split(b"\n")
        line = at % len(lines)
        if kind == "replace":
            blob = blob[:at] + payload + blob[end:]
        elif kind == "delete":
            blob = blob[:at] + blob[end:]
        elif kind == "truncate":
            blob = blob[:at]
        elif kind == "duplicate line":
            blob = b"\n".join(lines[:line] + [lines[span % len(lines)]] +
                              lines[line:])
        elif kind == "drop line":
            blob = b"\n".join(lines[:line] + lines[line + 1:])
        else:
            blob = blob[:at] + bytes([byte]) + blob[at + 1:]
    return blob


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A working directory and the bytes of a valid training CSV and of the
    model file ``fit`` writes from it."""
    work = tmp_path_factory.mktemp("fuzz")
    X, y, _ = gen_additive(SyntheticSpec(0, 10, 2, 0.2, ("sine", "linear")))
    write_csv(work / "seed.csv", X, y, ["a", "b"], "y")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--data", str(work / "seed.csv"), "--response",
                     "y", "--basis-size", "6", "--components", "3",
                     "--output", str(work / "seed.txt")]) == 0
    return work, (work / "seed.csv").read_bytes(), \
        (work / "seed.txt").read_bytes()


class TestMutationFuzz:
    """Mutated model files and CSVs through every subcommand: each run
    exits 0, 1 or 2 and no exception escapes ``main``."""

    @seed(20061019)
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["predict", "curves", "fit", "cv"]),
           st.sampled_from(["model", "data", "both"]), EDITS,
           st.sampled_from(FUZZ_NAMES))
    def test_mutated_inputs_exit_cleanly(self, fuzz_files, command, target,
                                         edits, name):
        work, data, model = fuzz_files
        # the first predictor's name, in the CSV header and the model file
        data = data.replace(b"a,b,y", name + b",b,y", 1)
        model = model.replace(b"predictors = a,b",
                              b"predictors = " + name + b",b", 1)
        if command in ("fit", "cv") or target != "model":
            data = mutate(data, edits)
        if command == "curves" or target != "data":
            model = mutate(model, edits)
        (work / "data.csv").write_bytes(data)
        (work / "model.txt").write_bytes(model)
        argv = {
            "predict": ["predict", "--model", "model.txt", "--data",
                        "data.csv", "--output", "pred.txt"],
            "curves": ["curves", "--model", "model.txt", "--output-dir",
                       "curves_dir", "--grid-size", "5"],
            "fit": ["fit", "--data", "data.csv", "--response", "y",
                    "--basis-size", "6", "--components", "3", "--output",
                    "fitted.txt"],
            "cv": ["cv", "--data", "data.csv", "--response", "y",
                   "--basis-size", "6", "--lambda-grid", "0.1,10",
                   "--max-components", "3"]}[command]
        argv = [str(work / a) if a.endswith((".txt", ".csv")) or
                a == "curves_dir" else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
