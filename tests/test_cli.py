import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from chamberwalks import cli, hecke, limit, plancherel, serialize, weyl


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out


def test_walk_exact_zero_steps(capsys):
    code, out = run(capsys, ["walk", "exact", "--q", "2", "--n", "0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "word,mu_m,mu_n,theta,mass,p_n"
    assert len(lines) == 2
    assert lines[1].startswith('"",0,0,"",1')


def test_walk_exact_two_steps(capsys):
    code, out = run(capsys, ["walk", "exact", "--q", "2", "--n", "2"])
    assert code == 0
    row = out.strip().split("\n")[1]
    assert row.split(",")[-1] == "0.16666666666666666"


def test_walk_exact_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["walk", "exact", "--q", "2", "--n", "4", "--out", str(a)]) == 0
    assert cli.main(["walk", "exact", "--q", "2", "--n", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_walk_mc_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["walk", "mc", "--q", "2", "--n", "3", "--trials", "20000",
            "--seed", "9"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_walk_mc_reads_decimal_q_exactly(capsys):
    """--q 2.1 is read as Fraction('2.1') = 21/10, not as the float 2.1
    (4728779608739021/2^51); mc_simulate accepts a move on a descent with
    probability 10/21 rounded to a double."""
    code, out = run(capsys, ["walk", "mc", "--q", "2.1", "--n", "3",
                             "--trials", "1000", "--seed", "1"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    masses = [float(row.rsplit(",", 2)[1]) for row in rows]
    assert abs(sum(masses) - 1.0) < 1e-12


def test_walk_llt_trend(capsys):
    code, out = run(capsys, ["walk", "llt", "--q", "2", "--n", "20,40,80",
                             "--word", ""])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ratios = [float(r[-1]) for r in rows]
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_walk_compare(capsys):
    code, out = run(capsys, ["walk", "compare", "--q", "2", "--n", "2",
                             "--word", "", "--trials", "50000", "--seed", "3"])
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cells["exact_mass"]) - 1 / 6) < 1e-12
    assert float(cells["mc_sigmas"]) <= 4.0


def test_walk_negative_steps(capsys):
    for argv in (["walk", "exact", "--n", "-3"],
                 ["walk", "mc", "--n", "-1", "--trials", "10"],
                 ["walk", "compare", "--n", "-2", "--trials", "10"],
                 ["walk", "llt", "--n=-3,5"]):
        assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""
    # a step count that is not an integer is named by its flag
    assert cli.main(["walk", "llt", "--n", "3,x"]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --n expects comma-separated integers, got '3,x'\n"


@pytest.mark.parametrize("command", ["mc", "compare"])
def test_walk_seed_outside_philox_keys(capsys, command):
    """A seed keys a Philox stream, so it lies in [0, 2^128); one outside is
    a usage error that names the seed, and 2^128 - 1 still runs."""
    for seed in (-1, 2 ** 128):
        argv = ["walk", command, "--n", "3", "--trials", "10", "--seed", str(seed)]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: need 0 <= seed < 2^128, got {seed}\n"
    argv = ["walk", command, "--n", "3", "--trials", "10", "--seed", str(2 ** 128 - 1)]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_TOLERANCE)
    assert capsys.readouterr().err == ""


def test_ball_words_are_the_reduced_words():
    """The word of each row of walk exact and walk mc, read from the ball,
    is weyl.reduced_word of its state, on every state of the radius-12 ball."""
    space = limit.state_space(12)
    assert cli._ball_words(space) == [serialize.word_to_str(weyl.reduced_word(
        space.element(s))) for s in range(len(space.elems))]


def test_walk_llt_checks_every_step_count_first(capsys, monkeypatch):
    """A step count below 1 in --n, or none at all, is refused by name
    before the walk runs, wherever it sits in the list."""
    def refuse(*args):
        raise AssertionError("the walk ran")
    monkeypatch.setattr(cli.limit, "masses_at", refuse)
    for steps in ("0,100", "100,0", "5,-1", ""):
        assert cli.main(["walk", "llt", "--q", "2", f"--n={steps}"]) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --n expects step counts >= 1, got '{steps}'\n"


@pytest.mark.parametrize("command", ["exact", "mc"])
def test_walk_distribution_has_no_word_flag(capsys, command):
    """walk exact and walk mc print the whole distribution, so a --word would
    be ignored; argparse refuses it instead."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["walk", command, "--q", "2", "--n", "3", "--word", "0"])
    assert exc.value.code == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --word 0" in out.err


def test_walk_bad_q(capsys):
    assert cli.main(["walk", "exact", "--q", "1", "--n", "2"]) == cli.EXIT_USAGE
    # a zero denominator is an input error, not a crash
    assert cli.main(["walk", "exact", "--q", "1/0", "--n", "2"]) == cli.EXIT_USAGE
    assert cli.main(["spectrum", "--q", "1/0"]) == cli.EXIT_USAGE
    assert "zero denominator" in capsys.readouterr().err
    # so is a literal that is no number, named by its flag
    assert cli.main(["spectrum", "--q", "abc"]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --q: 'abc' is not a rational number\n"


@pytest.mark.parametrize("argv, q", [
    (["walk", "llt", "--q", "1e300", "--n", "4", "--word", "0,1"], "1e300"),
    (["spectrum", "--q", "1e400"], "1e400"),
])
def test_huge_q_is_a_usage_error(capsys, argv, q):
    """q^l(w) = 1e600 and float(1e400) overflow a double: one error line that
    names q, exit 2, no traceback and nothing on stdout."""
    assert cli.main(argv) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: --q {q} is too large") and out.err.count("\n") == 1


def test_walk_beyond_the_memory_limit(capsys):
    # the ball of radius 10000 (n = 20000) is refused before it is built
    assert cli.main(["walk", "llt", "--q", "2", "--n", "20000", "--word", ""]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: radius 10000 needs a lattice box")


def test_walks_subcommand(capsys):
    code, out = run(capsys, ["walks", "--type", "1,2,1,0"])
    assert code == 0
    assert len(out.strip().split("\n")) == 10


def test_walks_rejects_nonreduced(capsys):
    assert cli.main(["walks", "--type", "1,1"]) == cli.EXIT_USAGE


def test_trace_identity_element(capsys, tmp_path):
    f = hecke.ScalarField(2)
    path = tmp_path / "one.json"
    path.write_text(serialize.hecke_to_json(hecke.unit(f)))
    code, out = run(capsys, ["trace", "--element", str(path), "--grid", "64",
                             "--depth", "8"])
    assert code == 0
    data = json.loads(out)
    for method in ("exact", "plancherel", "series"):
        assert abs(data[method]["value"] - 1.0) < 1e-8
    assert data["max_discrepancy"] < 1e-8


def test_trace_single_method(capsys, tmp_path):
    f = hecke.ScalarField(2)
    path = tmp_path / "t1.json"
    path.write_text(serialize.hecke_to_json(hecke.t_generator(f, 1)))
    code, out = run(capsys, ["trace", "--method", "plancherel",
                             "--element", str(path), "--grid", "64"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"]) < 1e-10
    assert data["N"] == 64


def _write_aa_star(path, q, words):
    """Write a a* for a = sum of (k + 1) T_w over the given words."""
    f = hecke.ScalarField(q)
    a = hecke.t_element(f, [(weyl.from_word(w), f.make(k + 1)) for k, w in enumerate(words)])
    h = hecke.mul(a, hecke.star(a))
    path.write_text(serialize.hecke_to_json(h))
    return float(complex(hecke.trace(h)).real)


@pytest.mark.parametrize("q", ["2", "3", "5/2"])
def test_trace_series_estimate_bounds_error(capsys, tmp_path, q):
    # the series value is the exact constant term: estimate 0, no error; the
    # check of the series itself stays within its bound at every depth
    for k, words in enumerate((((1, 0), (2,)), ((0, 1, 2), (1, 2), (0,)))):
        path = tmp_path / f"aa{k}.json"
        exact = _write_aa_star(path, q, words)
        for depth in (4, 10, 16):
            code, out = run(capsys, ["trace", "--method", "series", "--depth", str(depth),
                                     "--element", str(path)])
            assert code == 0
            data = json.loads(out)
            assert data["value"] == exact and data["abs_err_estimate"] == 0.0
            assert data["check_deviation"] <= data["check_bound"], (k, depth, data)


def test_trace_series_negative_depth(capsys, tmp_path):
    path = tmp_path / "aa.json"
    _write_aa_star(path, "3", ((1, 0), (2,)))
    argv = ["trace", "--method", "series", "--depth", "-1", "--element", str(path)]
    assert cli.main(argv) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: series depth must be >= 0, got -1\n"


@pytest.mark.parametrize("flags", [["--grid", "65536"],
                                   ["--method", "series", "--depth", "129"]])
def test_trace_limits_are_usage_errors(capsys, tmp_path, flags):
    """A grid or series depth above its limit exits 2 with one error line."""
    path = tmp_path / "aa.json"
    _write_aa_star(path, "2", ((1, 0), (2,)))
    assert cli.main(["trace", "--element", str(path)] + flags) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "exceeds the limit" in out.err


def test_trace_series_of_a_long_word_is_a_usage_error(capsys, tmp_path):
    """T_(t_(300,300)) has 1200 letters: its Bernstein form is built without
    a recursion per letter, and its trace table, of radius 602 at depth 2,
    exceeds the radius limit and exits 2 with one error line."""
    f = hecke.ScalarField(2)
    path = tmp_path / "long.json"
    path.write_text(serialize.hecke_to_json(
        hecke.t_element(f, [(weyl.translation((300, 300)), f.one)])))
    argv = ["trace", "--method", "series", "--depth", "2", "--element", str(path)]
    assert cli.main(argv) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: trace table radius 602 exceeds the limit of {hecke._MAX_RADIUS}\n"


def test_trace_all_refuses_a_long_word_before_the_quadrature(capsys, tmp_path, monkeypatch):
    """--method all runs the series route before the Plancherel quadrature, so
    an element past the trace table's radius limit exits 2 at once: on
    T_(t_(300,300)) the quadrature would take about 30 s before the refusal."""
    f = hecke.ScalarField(2)
    path = tmp_path / "long.json"
    path.write_text(serialize.hecke_to_json(
        hecke.t_element(f, [(weyl.translation((300, 300)), f.one)])))

    def refuse(h, n):
        raise AssertionError("the quadrature ran before the series route")

    monkeypatch.setattr(plancherel, "plancherel_estimate", refuse)
    assert cli.main(["trace", "--method", "all", "--element", str(path)]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: trace table radius 624 exceeds the limit of {hecke._MAX_RADIUS}\n"


def test_trace_series_check_exit_code(capsys, tmp_path, monkeypatch):
    path = tmp_path / "aa.json"
    _write_aa_star(path, "2", ((0, 1, 2), (1, 2), (0,)))  # X-support reaches (-1, -1)
    base = ["trace", "--element", str(path), "--grid", "64", "--depth", "10", "--method"]
    for method in ("series", "all"):
        assert run(capsys, base + [method])[0] == cli.EXIT_OK
    real = hecke.f_value
    monkeypatch.setattr(hecke, "f_value", lambda h, t: real(h, t) * (1 + 1e-6))
    for method in ("series", "all"):
        code, out = run(capsys, base + [method])
        assert code == cli.EXIT_TOLERANCE
        data = json.loads(out)
        series = data if method == "series" else data["series"]
        assert series["check_deviation"] > series["check_bound"]


def test_trace_all_exit_code(capsys, tmp_path, monkeypatch):
    path = tmp_path / "aa.json"
    _write_aa_star(path, "3", ((1, 0), (2,)))
    argv = ["trace", "--element", str(path), "--grid", "64", "--depth", "10"]
    assert run(capsys, argv)[0] == cli.EXIT_OK
    real = plancherel.plancherel_estimate

    def shifted(h, n):
        value, estimate = real(h, n)
        return value + 1e-3, estimate

    monkeypatch.setattr(plancherel, "plancherel_estimate", shifted)
    code, out = run(capsys, argv)
    assert code == cli.EXIT_TOLERANCE
    # the shift is the discrepancy, whichever way the unshifted value rounds
    assert abs(json.loads(out)["max_discrepancy"] - 1e-3) <= 1e-12


def test_trace_all_reads_an_x_basis_element(capsys, tmp_path):
    """An element given in the X-basis is traced through its T-basis form:
    every method prints the values it prints for that form."""
    t_path, x_path = tmp_path / "t.json", tmp_path / "x.json"
    _write_aa_star(t_path, "2", ((1, 0), (2,)))
    h = serialize.hecke_from_json(t_path.read_text())
    x_path.write_text(serialize.hecke_to_json(hecke.t_to_x(h)))
    assert json.loads(x_path.read_text())["basis"] == "X"
    argv = ["trace", "--method", "all", "--grid", "64", "--depth", "8", "--element"]
    code_t, out_t = run(capsys, argv + [str(t_path)])
    code_x, out_x = run(capsys, argv + [str(x_path)])
    assert code_x == code_t == cli.EXIT_OK
    assert json.loads(out_x) == json.loads(out_t)


def test_trace_flags_that_would_misreport(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(serialize.hecke_to_json(hecke.unit(hecke.ScalarField(2))))
    base = ["trace", "--element", str(path), "--method", "exact"]
    # --grid 16 would compare the plancherel grid with itself
    assert cli.main(base + ["--grid", "16"]) == cli.EXIT_USAGE
    assert "32" in capsys.readouterr().err
    assert cli.main(base + ["--grid", "32"]) == cli.EXIT_OK
    # --q must not silently differ from the element's q
    assert cli.main(base + ["--q", "3"]) == cli.EXIT_USAGE
    assert "differs" in capsys.readouterr().err
    assert cli.main(base + ["--q", "4/2"]) == cli.EXIT_OK


def test_trace_malformed_element(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["trace", "--element", str(path)]) == cli.EXIT_USAGE
    path.write_text(json.dumps({"basis": "T", "q": "2",
                                "terms": [{"index": {"mu": [0]}}]}))
    assert cli.main(["trace", "--element", str(path)]) == cli.EXIT_USAGE
    # coefficients are exact: re/im floats are not a coefficient
    path.write_text(json.dumps({"basis": "T", "q": "2", "terms": [
        {"index": {"mu": [0, 0], "u": ""}, "re": 1.0, "im": 0.5}]}))
    capsys.readouterr()
    assert cli.main(["trace", "--element", str(path)]) == cli.EXIT_USAGE
    assert "terms[0]" in capsys.readouterr().err
    # malformed q, terms and coefficients are input errors, not crashes
    one = {"index": {"mu": [0, 0], "u": ""}, "a": "1"}
    for bad, where in (({"q": "1/0", "terms": [one]}, "field 'q'"),
                       ({"q": "x", "terms": [one]}, "field 'q': 'x' is not a rational number"),
                       ({"q": "2", "terms": 5}, "field 'terms'"),
                       ({"q": "2", "terms": [5]}, "terms[0]"),
                       ({"q": "2", "terms": [one, dict(one, a="1/0")]}, "terms[1]")):
        path.write_text(json.dumps({"basis": "T", **bad}))
        assert cli.main(["trace", "--element", str(path)]) == cli.EXIT_USAGE
        assert where in capsys.readouterr().err
    # lattice coordinates are integers: null and 1.5 are refused, not
    # a crash or a silent truncation
    for mu in ([None, 0], [1.5, 0]):
        bad = {"index": {"mu": mu, "u": ""}, "a": "1"}
        path.write_text(json.dumps({"basis": "T", "q": "2", "terms": [bad]}))
        assert cli.main(["trace", "--element", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: terms[0]: element field 'mu'"), err
    path.write_text(json.dumps({"basis": "T", "q": "2", "terms": [
        {"index": {"mu": [2, 0.0], "u": ""}, "a": "1"}]}))
    assert cli.main(["trace", "--element", str(path), "--method", "exact"]) == cli.EXIT_OK


def test_reps_check(capsys):
    code, out = run(capsys, ["reps", "check", "--q", "2",
                             "--t", "0.6,0.8,0.28,-0.96", "--u", "0.6,0.8"])
    assert code == 0
    data = json.loads(out)
    assert data["max_relation_residual"] < 1e-12
    assert data["induced_max_relation_residual"] < 1e-12
    assert data["irreducible"] is True


def test_reps_check_coordinate_count(capsys):
    """--t takes exactly four numbers and --u exactly two; another count is
    a usage error, not a crash or a silently dropped number."""
    base = ["reps", "check", "--q", "2"]
    for flags, err in ((["--t", "0.5,0.5,0.3,0.1", "--u", "1"], "--u expects re,im"),
                       (["--t", "0.5,0.5,0.3,0.1,7"], "--t expects re,im,re,im"),
                       (["--t", "0.5,0.5,0.3,x"], "--t expects re,im,re,im")):
        assert cli.main(base + flags) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {err}\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reps_check_rejects_non_finite_parameters(capsys):
    """A NaN or infinite coordinate, or one whose inverse overflows, is a
    usage error, not a module with a tiny relation residual."""
    base = ["reps", "check", "--q", "2"]
    for flags, err in ((["--t", "nan,0,1,0"], "--t takes finite numbers"),
                       (["--t", "1e-320,0,1,0"], "non-finite entry"),
                       (["--t", "0.6,0.8,0.28,-0.96", "--u", "inf,0"],
                        "--u takes finite numbers")):
        assert cli.main(base + flags) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and err in out.err


def test_reps_check_reducible_point(capsys):
    code, out = run(capsys, ["reps", "check", "--q", "2", "--t", "2,0,0.3,0"])
    assert code == 0
    assert json.loads(out)["irreducible"] is False


def test_spectrum(capsys):
    """Each closed form against the numeric eigenvalues of its module, and
    the fitted constants of the shifted determinant identity."""
    for q in ("2", "3", "5/2"):
        code, out = run(capsys, ["spectrum", "--q", q])
        assert code == 0
        data = json.loads(out)
        assert list(data) == [
            "q", "eigenvalues", "induced_eigenvalues", "spectral_radius", "beta",
            "top_vector_entry", "bottom_vector_entry", "max_closed_form_deviation",
            "induced_max_closed_form_deviation", "determinant_fit",
            "determinant_fit_residual"]
        assert len(data["eigenvalues"]) == 6 and len(data["induced_eigenvalues"]) == 3
        assert data["max_closed_form_deviation"] < 1e-12
        assert data["induced_max_closed_form_deviation"] < 1e-12
        fit = data["determinant_fit"]
        assert max(abs(c - e) for c, e in zip(fit, (150, -48, -2))) < 1e-9
        assert data["determinant_fit_residual"] < 1e-11
        if q == "2":
            assert abs(data["spectral_radius"] - (3 + 73 ** 0.5) / 12) < 1e-14


@pytest.mark.parametrize("name, key", [
    ("eigen_surface", "max_closed_form_deviation"),
    ("induced_eigen_curve", "induced_max_closed_form_deviation"),
])
def test_spectrum_deviation_exit_code(capsys, monkeypatch, name, key):
    """Either module's closed forms deviating by 1e-12 or more is a tolerance
    violation."""
    real = getattr(limit, name)
    monkeypatch.setattr(limit, name, lambda angle, q: real(angle, q) + 2e-12)
    code, out = run(capsys, ["spectrum", "--q", "2"])
    assert code == cli.EXIT_TOLERANCE
    assert json.loads(out)[key] >= 1e-12


def test_module_entry_point_without_warning(package_env):
    # running the module must not find it already imported by the package
    proc = subprocess.run(
        [sys.executable, "-m", "chamberwalks.cli", "spectrum", "--q", "2"],
        capture_output=True, text=True, env=package_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["q"] == "2"


def test_exact_walk_loads_no_sparse_library(package_env):
    """The exact walk steps with numpy gathers alone."""
    script = (
        "import sys, chamberwalks\n"
        "from chamberwalks import cli\n"
        "assert cli.main(['walk', 'llt', '--n', '4', '--word', '']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=package_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_import_loads_no_executor(package_env):
    """Nothing in the package starts a thread pool, so importing the
    package and the CLI loads no executor."""
    script = (
        "import sys\n"
        "from chamberwalks import cli, limit\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=package_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["walk", "exact"])  # missing --n
    assert exc.value.code == cli.EXIT_USAGE


def test_readme_commands(capsys, tmp_path, monkeypatch):
    """Every `chamberwalks ...` line of README's "Command line" block exits 0,
    with a q=3 element.json in the working directory."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("chamberwalks ")]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    _write_aa_star(tmp_path / "element.json", "3", ((0, 1, 2), (1, 2), (0,)))
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK, line
