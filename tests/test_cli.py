import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdmbubble
from pdmbubble.algebra import OrderingParam
from pdmbubble import cli
from pdmbubble.cli import (MAX_CONFIG_CHARS, MAX_POINTS, MAX_SOLVE_WORK,
                           _check_solve_work, run)
from pdmbubble.helium import DEFAULT_HE4, EV, derived_params
from pdmbubble.spectral import Grid, SymTriMatrix, assemble, eigenvalues
from pdmbubble.susy import inverse_square_coefficient, z_space_operator


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert code == 0, err
    return json.loads(out)


#: A 4096-digit literal, the longest the DSL reads.
NINES = "9" * 4096

HE4_CONFIG = """\
# typical superfluid helium values at 4 K
sigma = 0.12e-3
P_v = 8.1445e4
rho_L = 140
rho_v = 0
T = 4
P = 0
"""


class TestParams:
    def test_default_values(self):
        data = invoke_json("params")
        assert data["R_c"] == "2.94677389649e-09"
        assert data["P_i_at_Rc"] == "8.14450000000e+04"
        assert data["Lambda"].startswith("4.363")
        assert data["p_Th"].startswith("1.518")
        assert "sqrt_U0_M0" in data
        assert data["barrier"]["z_star"] == "3.62887369301e-01"

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "he4.cfg"
        cfg.write_text(HE4_CONFIG)
        data = invoke_json("params", "--config", str(cfg))
        assert data == invoke_json("params")

    @pytest.mark.parametrize("argv", [
        ["params"], ["spectrum", "--a=-1/3", "--points", "300"],
        ["scan", "--points", "30"]], ids=["params", "spectrum", "scan"])
    def test_config_with_a_byte_order_mark(self, tmp_path, argv):
        # as Windows editors save it: a UTF-8 byte-order mark and CRLF lines
        plain, marked = tmp_path / "he4.cfg", tmp_path / "he4-bom.cfg"
        plain.write_text(HE4_CONFIG)
        crlf = HE4_CONFIG.replace("\n", "\r\n")
        marked.write_bytes(b"\xef\xbb\xbf" + crlf.encode())
        expected = invoke(*argv, "--config", str(plain))
        assert expected[0] == 0 and expected[1]
        assert invoke(*argv, "--config", str(marked)) == expected

    def test_pressure_ratio(self):
        data = invoke_json("params", "--pressure-ratio", "0.8")
        assert float(data["inputs"]["P"]) == pytest.approx(0.8 * 8.1445e4)
        assert float(data["R_c"]) == pytest.approx(
            5.0 * 2.94677389649e-9, rel=1e-11, abs=0
        )

    def test_missing_config_file_is_io_error(self):
        code, out, err = invoke("params", "--config", "/nonexistent/x.cfg")
        assert code == 2
        assert err.startswith("error: io:")
        assert err.count("\n") == 1

    def test_malformed_config_is_domain_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma = banana\n")
        code, out, err = invoke("params", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: domain:")

    def test_config_past_the_size_bound_is_one_domain_error(self, tmp_path):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("#" * MAX_CONFIG_CHARS)  # read, then refused by keys
        assert invoke("params", "--config", str(cfg)) == (
            2, "", "error: domain: missing key sigma\n")
        cfg.write_text("#" * (MAX_CONFIG_CHARS + 1))
        assert invoke("params", "--config", str(cfg)) == (
            2, "", f"error: domain: --config: expected a file of at most "
            f"{MAX_CONFIG_CHARS} characters, found more\n")

    def test_superheated_required(self):
        code, out, err = invoke("params", "--pressure-ratio", "1.2")
        assert code == 2
        assert err.startswith("error: domain:")

    @pytest.mark.parametrize("command", ["params", "spectrum", "scan"])
    def test_scale_out_of_float_range_is_one_domain_error(self, tmp_path, command):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("sigma = 1e200\nP_v = 1\nrho_L = 140\nT = 4\nP = 0\n")
        argv = [command, "--config", str(cfg)]
        if command == "spectrum":
            argv.append("--a=-1/3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(*argv)
        assert (code, out, err) == (2, "", "error: domain: U0 out of float range\n")

    @pytest.mark.parametrize("command", ["params", "spectrum", "scan"])
    @pytest.mark.parametrize("sigma", ["1e100", "1e-100"])
    def test_k_out_of_float_range_is_one_domain_error(self, tmp_path, command, sigma):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"sigma = {sigma}\nP_v = 1\nrho_L = 1\nT = 4\nP = 0\n")
        argv = [command, "--config", str(cfg)]
        if command == "spectrum":
            argv.append("--a=-1/3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(*argv)
        assert (code, out, err) == (2, "", "error: domain: k out of float range\n")

    def test_sqrt_u0_m0_out_of_float_range_is_one_domain_error(self, tmp_path):
        # every derived scale is finite, but U0 * M0 overflows
        cfg = tmp_path / "heavy.cfg"
        cfg.write_text("sigma = 1e150\nP_v = 2e150\nrho_L = 1e200\nT = 4\nP = 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke("params", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: domain: sqrt_U0_M0 out of float range\n"

    def test_non_finite_pressure_ratio_is_domain_error(self):
        code, out, err = invoke("params", "--pressure-ratio", "nan")
        assert (code, out) == (2, "")
        assert err.startswith("error: domain:")
        assert err.count("\n") == 1


class TestWeyl:
    def test_pure_momentum_squared(self):
        data = invoke_json("weyl", "--hamiltonian", "p^2")
        [term] = data["operator"]["terms"]
        assert term["order"] == 2
        assert term["poly"] == [
            {"p": "-1", "q": "0", "exponent_num": 0, "exponent_den": 1}
        ]
        assert data["hermiticity"]["passes"] is True

    def test_kinetic_term(self):
        data = invoke_json("weyl", "--hamiltonian", "p^2/(2*x^3)")
        by_order = {t["order"]: t["poly"] for t in data["operator"]["terms"]}
        assert by_order[2] == [
            {"p": "-1/2", "q": "0", "exponent_num": -3, "exponent_den": 1}
        ]
        assert by_order[1][0]["p"] == "3/2"
        assert by_order[0][0]["p"] == "-3/2"

    def test_bindings(self):
        data = invoke_json(
            "weyl", "--hamiltonian", "p^2/(2*M*x^3)", "--bind", "M=4"
        )
        by_order = {t["order"]: t["poly"] for t in data["operator"]["terms"]}
        assert by_order[2][0]["p"] == "-1/8"

    def test_unbound_name_is_domain_error(self):
        code, out, err = invoke("weyl", "--hamiltonian", "p^2/(2*Q*x^3)")
        assert code == 2
        assert err.startswith("error: domain:")

    def test_syntax_error_is_domain_error(self):
        code, out, err = invoke("weyl", "--hamiltonian", "p^2 +")
        assert code == 2
        assert err.startswith("error: domain:")

    def test_bad_binding_is_usage_error(self):
        code, out, err = invoke(
            "weyl", "--hamiltonian", "p^2", "--bind", "justaname"
        )
        assert code == 1
        assert err.startswith("error: usage:")

    @pytest.mark.parametrize("argv, name", [
        (("x", "--bind", "x=3"), "'x'"),
        (("p^2", "--bind", "p=3"), "'p'"),
        (("x", "--bind", "1M=3"), "'1M'"),
    ])
    def test_binding_the_parser_never_reads_is_usage_error(self, argv, name):
        # x and p are read before any binding, and no DSL name spells 1M
        assert invoke("weyl", "--hamiltonian", *argv) == (
            1, "", "error: usage: --bind: expected a name matching "
            f"[A-Za-z_][A-Za-z_0-9]* other than x and p, found {name}\n")

    @pytest.mark.parametrize("binding", ["M=abc", "M=1/0"])
    def test_non_rational_binding_is_usage_error(self, binding):
        code, out, err = invoke(
            "weyl", "--hamiltonian", "p^2/(2*M*x^3)", "--bind", binding
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: usage: bad binding")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, error",
        [
            ("(" * 300 + "x" + ")" * 300,
             "at offset 100: expected parentheses nested at most 100 deep, "
             "found '('"),
            ("(((x+1)^16)^16)^16",
             "at offset 15: expected at most 65536 term pairs in a parse, "
             "found 99490"),
            ("1e1000000*x",
             "at offset 0: expected a decimal exponent at most 4096, "
             "found 1000000"),
            ("1" * 5000 + "*x",
             "at offset 0: expected a literal of at most 4096 digits, "
             "found 5000 digits"),
            ("(1111111111*x)^4096",
             "at offset 14: expected a power of at most 4096 digits, "
             "found 37052 digits"),
            ("(0*x)^-1", "at offset 5: expected a nonzero divisor, found zero"),
        ],
    )
    def test_hostile_input_is_one_domain_error(self, text, error):
        code, out, err = invoke("weyl", f"--hamiltonian={text}")
        assert (code, out, err) == (2, "", f"error: domain: {error}\n")

    def test_huge_decimal_exponent_is_refused_before_it_is_taken(self):
        # Fraction would build 10**10000000 exactly: about 13 s
        start = time.perf_counter()
        code, _, _ = invoke("weyl", "--hamiltonian", "1e10000000*x")
        assert code == 2
        assert time.perf_counter() - start < 0.1

    def test_long_base_power_is_refused_before_it_is_taken(self):
        # (<4000 ones>*x)^4096 ran 27 s before its size was bounded
        start = time.perf_counter()
        code, out, err = invoke("weyl", "--hamiltonian",
                                "(" + "1" * 4000 + "*x)^4096")
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err.startswith("error: domain: at offset 4004: expected a power")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, code, error", [
        (("--hamiltonian", NINES + "*" + NINES + "*x"), 2,
         "domain: at offset 4096: expected a rational of at most 4300 digits "
         "a part, found more"),
        (("--hamiltonian", NINES + "e4096*x"), 2,
         "domain: at offset 0: expected a rational of at most 4300 digits a "
         "part, found more"),
        (("--hamiltonian", "M*x", "--bind", f"M={NINES}e4096"), 1,
         "usage: --bind M: expected a rational of at most 4300 digits a "
         "part, found more"),
        # the symbol parses, and f'' = e(e-1) x^(e-2) has an 8192-digit
        # denominator, or f'' = 6 c x with c of 4300 digits has 4301
        (("--hamiltonian", f"x^(1/{NINES})*p^2"), 2, "domain: Weyl operator: "
         "expected a rational of at most 4300 digits a part, found more"),
        (("--hamiltonian", f"{NINES}*1e204*x^3*p^2"), 2, "domain: Weyl "
         "operator: expected a rational of at most 4300 digits a part, "
         "found more"),
    ])
    def test_oversized_coefficient_is_one_error_at_once(self, argv, code,
                                                        error):
        # each built an int of over 4300 digits that Python would not print
        start = time.perf_counter()
        got = invoke("weyl", *argv)
        assert time.perf_counter() - start < 0.1
        assert got == (code, "", f"error: {error}\n")

    def test_long_minus_run_parses(self):
        # a run of unary minus is a loop, not one stack frame per sign
        assert (invoke_json("weyl", "--hamiltonian=" + "-" * 3000 + "p^2")
                == invoke_json("weyl", "--hamiltonian", "p^2"))


class TestSusy:
    def test_expanded_default(self):
        data = invoke_json("susy", "--a=-1/3")
        assert data["source"] == "expanded"
        assert data["paper_source_available"] is True
        assert data["a"] == "-1/3"
        assert data["b"] == "-1/6"
        assert data["c_a"] == "-9/100"
        assert data["checks"]["commutator_zero"] is True
        assert data["checks"]["sum_is_multiplication"] is True

    def test_superpotential_terms(self):
        data = invoke_json("susy", "--a=0")
        terms = {
            (t["exponent_num"], t["exponent_den"]): t["q"] for t in data["W"]
        }
        assert terms[(5, 2)] == "1/5"
        assert terms[(-5, 2)] == "-3/8"

    def test_paper_source(self):
        data = invoke_json("susy", "--a=-1/6", "--source", "paper")
        assert data["source"] == "paper"
        assert data["c_a"] == "-9/100"

    def test_sources_differ_at_a_zero(self):
        paper = invoke_json("susy", "--a=0", "--source", "paper")
        expanded = invoke_json("susy", "--a=0", "--source", "expanded")
        assert paper["c_a"] == "-21/100"
        assert expanded["c_a"] == "39/100"

    def test_unknown_source_is_domain_error(self):
        code, out, err = invoke("susy", "--a=0", "--source", "weyl")
        assert code == 2
        assert err.startswith("error: domain:")


class TestTransform:
    def test_bubble_map(self):
        data = invoke_json("transform", "--a=-1/3")
        assert data["map"] == {"alpha": "2/5", "c_base": "5/2", "c_exp": "2/5"}
        assert data["measure"] == {
            "coeff_base": "5/2",
            "coeff_exp": "-3/5",
            "z_exp": "-3/5",
        }
        restored = {
            t["order"]: t["poly"] for t in data["operator_z_unit_measure"]["terms"]
        }
        assert restored[2] == [
            {"p": "-1/2", "q": "0", "exponent_num": 0, "exponent_den": 1}
        ]
        assert restored[0] == [
            {"p": "-9/200", "q": "0", "exponent_num": -2, "exponent_den": 1}
        ]
        assert 1 not in restored

    def test_intermediate_operator_retains_first_derivative(self):
        data = invoke_json("transform", "--a=0")
        mid = {t["order"]: t["poly"] for t in data["operator_z"]["terms"]}
        assert mid[1][0]["p"] == "3/10"

    def test_transform_first_refused(self):
        code, out, err = invoke(
            "transform", "--a=0", "--pipeline", "transform-first"
        )
        assert code == 2
        assert err.startswith("error: domain:")
        assert "quantize" in err

    def test_bad_pipeline_is_usage_error(self):
        code, out, err = invoke("transform", "--a=0", "--pipeline", "sideways")
        assert code == 1
        assert err.startswith("error: usage:")


class TestMatch:
    def test_paper_roots(self):
        data = invoke_json("match", "--source", "paper")
        assert [r["a"] for r in data["roots"]] == ["-1/6", "1/2"]
        assert all(not r["verified"] for r in data["roots"])

    def test_expanded_roots(self):
        data = invoke_json("match", "--source", "expanded")
        assert [r["a"] for r in data["roots"]] == ["-1", "-1/3"]
        assert all(r["verified"] for r in data["roots"])
        named = {d["label"]: d["equals_weyl"] for d in data["named_orderings"]}
        assert named["(1/x) p (1/x) p (1/x)"] is True
        assert named["p (1/x^3) p"] is False
        assert named["(1/2)[p^2 (1/x^3) + (1/x^3) p^2]"] is False


class TestSpectrum:
    def test_header_and_shape(self):
        code, out, err = invoke(
            "spectrum", "--a=-1/3", "--points", "400", "--count", "3"
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "index,eigenvalue_J,eigenvalue_eV"
        assert len(lines) == 4
        evs = [float(line.split(",")[1]) for line in lines[1:]]
        assert evs == sorted(evs)
        for line in lines[1:]:
            j, ev = (float(v) for v in line.split(",")[1:])
            assert ev == pytest.approx(j / 1.602176634e-19, rel=1e-10)

    def test_count_exceeding_matrix_is_domain_error(self):
        code, out, err = invoke(
            "spectrum", "--a=-1/3", "--points", "10", "--count", "11"
        )
        assert code == 2
        assert err.startswith("error: domain:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--a=-1/3", "--zmin", "-1"),
            ("scan", "--zmin", "0"),
            ("spectrum", "--a=-1/3", "--zmax", "inf", "--points", "10"),
            ("scan", "--zmin", "inf"),
            ("scan", "--zmin=-1e308", "--zmax", "1e308", "--points", "3"),
        ],
    )
    def test_nonpositive_z_is_one_domain_error(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: domain:")
        # a span of inf makes the first z nan: 0 * inf, as on Python floats
        infinite = "inf" in argv or "--zmin=-1e308" in argv
        assert ("requires finite z" if infinite else "requires z > 0") in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--zmax", "1e200", "--points", "3"),
            ("spectrum", "--a=-1/3", "--zmax", "1e200", "--points", "10"),
            ("scan", "--zmin", "1e-200", "--points", "3"),
            ("scan", "--zmax", "1e305", "--points", "2000"),
        ],
    )
    def test_z_squared_out_of_range_is_one_domain_error(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: domain: inverse-square potential: z**2 out of float range at z = "
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize("a", [F(-1, 3), F(0), F(1, 2)])
    @pytest.mark.parametrize("source", ["expanded", "paper"])
    def test_levels_match_the_exact_operator(self, a, source):
        # A box around the well, where both k and c_a move the levels; the
        # symbolic operator carries k = 1/2, so it is rescaled by 2k here.
        grid = Grid(1e-6, 0.01, 2000)
        code, out, err = invoke(
            "spectrum", f"--a={a}", "--source", source, "--zmin", "1e-6",
            "--zmax", "0.01", "--points", "2000", "--count", "3",
        )
        assert code == 0, err
        printed = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        d = derived_params(DEFAULT_HE4)
        m = assemble(z_space_operator(OrderingParam(a), source), grid)
        z = grid.interior
        v_sys = d.U0 * z**0.8 * (1.0 - z**0.4)
        exact = SymTriMatrix(2 * d.k * m.diagonal + v_sys, 2 * d.k * m.off_diagonal)
        expected = eigenvalues(exact, 3).eigenvalues
        assert printed == pytest.approx(expected, rel=1e-10, abs=0)

    def test_unconverged_solve_names_the_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke("spectrum", "--a=-1/3", "--zmin", "0",
                                    "--zmax", "1e-100", "--points", "10")
        assert (code, out) == (2, "")
        assert err == (
            "error: domain: eigenvalues did not converge on the grid over "
            "[0, 1e-100] with h = 9.09091e-102\n"
        )

    def test_non_finite_matrix_is_one_domain_error(self, tmp_path):
        # rho_L = 1e-300 makes k overflow to inf, so the stencil holds inf and
        # nan and the solver's own finiteness check is the one that fires
        cfg = tmp_path / "light.cfg"
        cfg.write_text("sigma = 0.5\nP_v = 1\nrho_L = 1e-300\nT = 4\nP = 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(
                "spectrum", "--a=-1/4", "--zmin", "1e-40", "--zmax", "2e-40",
                "--points", "3", "--count", "1", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: domain: array must not contain infs or NaNs\n"

    @pytest.mark.parametrize("command", [("spectrum", "--a=-1/3"), ("scan",)])
    def test_points_above_cap_is_domain_error(self, command):
        code, out, err = invoke(*command, "--points", str(MAX_POINTS + 1))
        assert (code, out) == (2, "")
        assert err == f"error: domain: --points must be at most {MAX_POINTS}\n"

    def test_solve_work_above_budget_is_domain_error(self):
        code, out, err = invoke("spectrum", "--a=-1/3", "--points", "2900",
                                "--count", "2900")
        assert (code, out) == (2, "")
        assert err == ("error: domain: --points times --count must be at most "
                       f"{MAX_SOLVE_WORK}, found 8410000\n")

    def test_solve_work_budget_admits_its_bound(self):
        # checked directly: a solve at the bound would take seconds
        assert MAX_SOLVE_WORK == 2 ** 23
        _check_solve_work(2 ** 13, 2 ** 10)
        _check_solve_work(MAX_POINTS, 8)
        with pytest.raises(ValueError, match="found 8388609"):
            _check_solve_work(MAX_SOLVE_WORK + 1, 1)

    @pytest.mark.parametrize("points, count, error", [
        ("-3000", "-3000", "grid needs at least 3 points"),
        ("2", "5000000", "grid needs at least 3 points"),
        ("2000", "5000", "count must satisfy 1 <= count <= N"),
    ])
    def test_solve_work_budget_judges_only_a_count_the_solve_takes(
            self, points, count, error):
        # the product of an invalid --points or --count is no work: each
        # invalid value meets its own refusal instead of the budget's
        code, out, err = invoke("spectrum", "--a=0", "--points", points,
                                "--count", count)
        assert (code, out) == (2, "")
        assert err == f"error: domain: {error}\n"


def scalar_scan(a, source, zmin, zmax, points, ratios):
    """scan's stdout built one row at a time, as the table was first written:
    Python floats in the scalar order and one f-string per value."""
    zs = [zmin + i * (zmax - zmin) / (points - 1) for i in range(points)]
    c_a = float(inverse_square_coefficient(a, source))
    lines = ["pressure_ratio,z,V_a_eV,V_sys_eV,V_total_eV\n"]
    for ratio in ratios:
        d = derived_params(DEFAULT_HE4.with_pressure(ratio * DEFAULT_HE4.P_v))
        for z in zs:
            va = d.k * c_a / z**2
            vs = d.U0 * z**0.8 * (1.0 - z**0.4)
            lines.append(
                f"{ratio:.11e},{z:.11e},{va / EV:.11e},{vs / EV:.11e},"
                f"{(va + vs) / EV:.11e}\n"
            )
    return "".join(lines)


def scalar_spectrum(a, source, zmin, zmax, points, count):
    """spectrum's stdout built one row at a time, as the table was first
    written: the stencil's entries in Python floats in the scalar order,
    (2k/h**2 + (k c_a)/z**2) + U0 z**0.8 (1 - z**0.4), and one f-string per
    row."""
    d = derived_params(DEFAULT_HE4)
    k_c_a = d.k * float(inverse_square_coefficient(a, source))
    h = (zmax - zmin) / (points + 1)
    h2 = h**2
    zs = [zmin + h * i for i in range(1, points + 1)]
    diag = [(-2.0 * -d.k / h2 + k_c_a / z**2) + d.U0 * z**0.8 * (1.0 - z**0.4)
            for z in zs]
    matrix = SymTriMatrix(np.array(diag), np.full(points - 1, -d.k / h2))
    lines = ["index,eigenvalue_J,eigenvalue_eV\n"]
    for i, ev in enumerate(eigenvalues(matrix, count).eigenvalues):
        lines.append(f"{i},{ev:.11e},{ev / EV:.11e}\n")
    return "".join(lines)


class TestSpectrumRows:
    @pytest.mark.parametrize("box", [(0.05, 3.0), (1e-6, 0.02)])
    @pytest.mark.parametrize("a", [F(-1, 3), F(1, 6)])
    @pytest.mark.parametrize("source", ["expanded", "paper"])
    def test_stdout_matches_per_row_formatting(self, box, a, source):
        zmin, zmax = box
        code, out, err = invoke(
            "spectrum", f"--a={a}", "--source", source, "--zmin", str(zmin),
            "--zmax", str(zmax), "--points", "2000", "--count", "60",
        )
        assert code == 0, err
        assert out == scalar_spectrum(a, source, zmin, zmax, 2000, 60)

    def test_rows_spanning_several_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "SCAN_CHUNK", 7)
        code, out, err = invoke(
            "spectrum", "--a=-1/3", "--points", "300", "--count", "20",
        )
        assert code == 0, err
        assert out == scalar_spectrum(F(-1, 3), "expanded", 0.05, 3.0, 300, 20)


class TestScan:
    def test_header_and_ordering(self):
        code, out, err = invoke("scan", "--points", "5")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "pressure_ratio,z,V_a_eV,V_sys_eV,V_total_eV"
        assert len(lines) == 11
        ratios = [float(line.split(",")[0]) for line in lines[1:]]
        assert ratios == sorted(ratios)
        zs = [float(line.split(",")[1]) for line in lines[1:6]]
        assert zs == sorted(zs)
        assert zs[0] == pytest.approx(0.05)
        assert zs[-1] == pytest.approx(3.0)

    def test_total_is_sum(self):
        code, out, _ = invoke("scan", "--points", "7", "--pressures", "0.9")
        for line in out.splitlines()[1:]:
            _, _, va, vs, vt = (float(v) for v in line.split(","))
            assert vt == pytest.approx(va + vs, rel=1e-9)

    def test_barrier_height_grows_with_pressure(self):
        code, out, _ = invoke("scan", "--points", "400", "--a=-1/6",
                              "--source", "paper")
        peaks = {}
        for line in out.splitlines()[1:]:
            ratio, _, _, vs, _ = line.split(",")
            peaks[ratio] = max(peaks.get(ratio, float("-inf")), float(vs))
        values = [peaks[r] for r in sorted(peaks)]
        assert len(values) == 2
        assert values[1] > values[0]

    def test_bad_pressure_list_is_domain_error(self):
        code, out, err = invoke("scan", "--pressures", "0.8,oops")
        assert code == 2
        assert err.startswith("error: domain:")

    @pytest.mark.parametrize("points", ["1", "0", "-5"])
    def test_too_few_points_is_one_domain_error(self, points):
        code, out, err = invoke("scan", "--points", points)
        assert (code, out) == (2, "")
        assert err == "error: domain: --points must be at least 2\n"

    @pytest.mark.parametrize(
        "box", [("--zmin", "1", "--zmax", "1"), ("--zmin", "3", "--zmax", "0.05")]
    )
    def test_empty_or_reversed_range_is_one_domain_error(self, box):
        code, out, err = invoke("scan", *box, "--points", "3")
        assert (code, out) == (2, "")
        assert err == "error: domain: z_max must exceed z_min\n"

    def test_failing_ratio_prints_no_rows(self):
        code, out, err = invoke("scan", "--pressures", "0.8,1.2", "--points", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: domain:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", f"--a={10**200}", "--points", "3"),
            ("spectrum", f"--a={10**200}", "--points", "10"),
        ],
    )
    def test_c_a_out_of_float_range_is_one_domain_error(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: domain: inverse-square potential: c_a out of float range\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("spectrum", "--a=-1/3", "--zmin", "-1"),
             "inverse-square potential requires z > 0"),
            (("scan", "--zmin", "0"), "inverse-square potential requires z > 0"),
            (("scan", "--zmin", "-5", "--zmax", "1e200", "--points", "3"),
             "inverse-square potential requires z > 0"),
            (("scan", "--zmin", "1e-170", "--zmax", "1e200", "--points", "3"),
             "inverse-square potential: z**2 out of float range at z = 1e-170"),
        ],
    )
    def test_first_bad_z_names_the_error(self, argv, message):
        code, out, err = invoke(*argv)
        assert (code, out, err) == (2, "", f"error: domain: {message}\n")

    @pytest.mark.parametrize(
        "argv, z",
        [
            (("scan", "--zmax", "1e10", "--points", "3"), "5e+09"),
            (("spectrum", "--a=-1/3", "--zmax", "1e10", "--points", "10"),
             "9.09091e+08"),
            # the first table is finite; the 0.9 table is refused before it
            (("scan", "--zmax", "1e5", "--points", "3", "--pressures", "0,0.9"),
             "50000.5"),
        ],
    )
    def test_v_sys_out_of_float_range_is_one_domain_error(self, tmp_path, argv, z):
        # U0 as at rho_L = 1, where k underflows; a light liquid keeps k finite
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("sigma = 1e100\nP_v = 1\nrho_L = 1e-300\nT = 4\nP = 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(*argv, "--zmin", "1", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: domain: v_sys out of float range at z = {z}\n"

    @pytest.mark.parametrize(
        "argv, column",
        [
            (("scan", "--zmax", "1e5", "--points", "3", "--pressures", "0"),
             "V_sys_eV"),
            (("spectrum", "--a=-1/3", "--zmax", "1e5", "--points", "10"),
             "eigenvalue_eV"),
            # the first table is finite in eV; the 0.9 table is refused before it
            (("scan", "--zmax", "1e3", "--points", "3", "--pressures", "0,0.9"),
             "V_sys_eV"),
        ],
    )
    def test_ev_column_out_of_float_range_is_one_domain_error(
            self, tmp_path, argv, column):
        # V_sys is finite in joules (below 1.8e308 J) but not in eV
        cfg = tmp_path / "ev.cfg"
        cfg.write_text("sigma = 1e284\nP_v = 2e284\nrho_L = 1\nT = 4\nP = 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(*argv, "--zmin", "1", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: domain: {column} out of float range\n"

    def test_pressure_ratio_is_not_a_scan_option(self):
        code, out, err = invoke("scan", "--pressure-ratio", "0.5", "--points", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: usage:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("a", [F(-1, 3), F(1, 6)])
    @pytest.mark.parametrize("source", ["expanded", "paper"])
    def test_stdout_matches_per_row_formatting(self, a, source):
        code, out, err = invoke(
            "scan", f"--a={a}", "--source", source, "--points", "5000",
            "--pressures", "0.95,0.8",
        )
        assert code == 0, err
        assert out == scalar_scan(a, source, 0.05, 3.0, 5000, [0.8, 0.95])

    def test_z_powers_are_taken_once(self, monkeypatch):
        # the three tables share z**2, z**0.8 and z**0.4 of the one z grid
        calls = []
        z_powers = cli.z_powers

        def counted(zs):
            calls.append(len(zs))
            return z_powers(zs)

        monkeypatch.setattr(cli, "z_powers", counted)
        code, out, err = invoke("scan", "--points", "5",
                                "--pressures", "0.5,0.8,0.9")
        assert code == 0, err
        assert calls == [5]

    def test_rows_spanning_several_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "SCAN_CHUNK", 7)
        code, out, err = invoke(
            "scan", "--zmin", "1e-8", "--zmax", "0.02", "--points", "50",
            "--pressures", "0.5,0.9",
        )
        assert code == 0, err
        expected = scalar_scan(F(-1, 3), "expanded", 1e-8, 0.02, 50, [0.5, 0.9])
        assert out == expected


class TestErrorOrder:
    """A command with several bad inputs names the first in the order
    parameters or grid, source, z, c_a: helium takes a c_a that cli looked
    up, so the order is cli's to keep.  spectrum refuses its grid and count
    before anything else."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("spectrum", f"--a={10**200}", "--source", "bogus", "--zmin", "-1"),
             "unknown partner-potential source: 'bogus'"),
            (("spectrum", f"--a={10**200}", "--zmin", "-1", "--points", "10"),
             "inverse-square potential requires z > 0"),
            (("scan", f"--a={10**200}", "--source", "bogus", "--zmin", "0",
              "--points", "3"),
             "unknown partner-potential source: 'bogus'"),
            (("scan", f"--a={10**200}", "--zmin", "0", "--points", "3"),
             "inverse-square potential requires z > 0"),
            (("spectrum", "--a=0", "--source", "bogus", "--count", "0"),
             "count must satisfy 1 <= count <= N"),
        ],
    )
    def test_source_then_z_then_c_a(self, argv, message):
        code, out, err = invoke(*argv)
        assert (code, out, err) == (2, "", f"error: domain: {message}\n")


def adversarial_floats() -> list[float]:
    """Values at and next to the points where 12-digit rounding turns: the
    decimal half-way points (m + 1/2) 10**(e - 11) of a few mantissas m over
    every exponent e in [-320, 300] (some are exact binary ties) and every
    power of ten, each with its neighbours 1 to 3 ulps away; m + 0.49 and
    m + 0.51, just outside the writer's tie margin; the float range's end
    points and 3-digit exponents.  Signs alternate."""
    rng = np.random.default_rng(11)
    mantissas = [10**11, 10**12 - 1, *rng.integers(10**11, 10**12, 3)]
    exponents = range(-320, 301)
    centres = np.array(
        [float(f"{m}5e{e - 12}") for e in exponents for m in mantissas]
        + [float(f"1e{e}") for e in range(-323, 309)]
    )
    near = [centres]
    for direction in (-np.inf, np.inf):
        x = centres
        for _ in range(3):
            x = np.nextafter(x, direction)
            near.append(x)
    outside = [float(f"{m}{f}e{e - 13}")
               for e in exponents for m in mantissas for f in (49, 51)]
    special = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, 1e100, 9.999999999995e99,
               1.2345678901234e-150, 6.02214076e223]
    values = np.concatenate(near + [outside, special])
    values = values[np.isfinite(values)]
    return np.stack([values, -values], axis=1).ravel().tolist()


def written_rows(values) -> str:
    """``cli._write_rows`` of an index column and a float column, with numpy
    warnings raised as errors."""
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli._write_rows(out, (np.arange(len(values)), np.array(values, float)))
    return out.getvalue()


class TestRowWriter:
    """The vectorized writer against ``%d`` and ``%.11e`` on Python values."""

    @staticmethod
    def expected(values) -> str:
        return "".join("%d,%.11e\n" % row for row in enumerate(values))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40))
    def test_matches_percent_formatting(self, values):
        assert written_rows(values) == self.expected(values)

    def test_adversarial_values(self):
        values = adversarial_floats()
        assert written_rows(values) == self.expected(values)

    def test_non_finite_values(self):
        values = [math.inf, -math.inf, math.nan, -0.0, 1.5]
        assert written_rows(values) == self.expected(values)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("params",),
            ("weyl", "--hamiltonian", "p^2/(2*x^3)"),
            ("susy", "--a=-1/3"),
            ("transform", "--a=-1/6"),
            ("match", "--source", "expanded"),
            ("spectrum", "--a=-1/3", "--points", "200", "--count", "2"),
            ("scan", "--points", "20"),
        ],
    )
    def test_byte_identical_reruns(self, argv):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second
        assert first[0] == 0
        assert "\r" not in first[1]
        assert first[1].endswith("\n")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        code, out, err = invoke("frobnicate")
        assert code == 1
        assert err.startswith("error: usage:")
        assert out == ""

    def test_missing_subcommand(self):
        code, out, err = invoke()
        assert code == 1
        assert err.startswith("error: usage:")

    def test_unknown_flag(self):
        code, out, err = invoke("params", "--frob")
        assert code == 1
        assert err.startswith("error: usage:")

    def test_missing_required_flag(self):
        code, out, err = invoke("susy")
        assert code == 1
        assert err.startswith("error: usage:")

    def test_zero_denominator_is_usage_error(self):
        code, out, err = invoke("susy", "--a=1/0")
        assert (code, out) == (1, "")
        assert err.startswith("error: usage:")
        assert err.count("\n") == 1

    def test_error_line_is_single_line(self):
        for argv in (("frobnicate",), ("susy", "--a=0", "--source", "weyl")):
            _, _, err = invoke(*argv)
            assert err.endswith("\n")
            assert err.count("\n") == 1


class TestRationalOptions:
    """--a and --bind are read through the parser's literal bounds, and --a,
    which is squared and printed, has at most MAX_DIGITS // 2 digits a part:
    a short option builds no number of unbounded size."""

    @pytest.mark.parametrize("argv, error", [
        (("susy", "--a=1e1000000"), "argument --a: expected a decimal "
         "exponent at most 4096, found 1000000"),
        (("susy", "--a=1e10000"), "argument --a: expected a decimal "
         "exponent at most 4096, found 10000"),
        (("spectrum", "--a=1/" + "3" * 5000), "argument --a: expected a "
         "literal of at most 4096 digits, found 5000 digits"),
        (("transform", "--a=1/" + "3" * 4000), "argument --a: expected at "
         "most 2048 digits a part, found more"),
        (("scan", "--a=" + "9" * 2049), "argument --a: expected at most 2048 "
         "digits a part, found more"),
        (("weyl", "--hamiltonian", "M*x", "--bind", "M=1e1000000"),
         "--bind M: expected a decimal exponent at most 4096, found 1000000"),
        (("weyl", "--hamiltonian", "M*x", "--bind", "M=1/" + "3" * 5000),
         "--bind M: expected a literal of at most 4096 digits, "
         "found 5000 digits"),
    ])
    def test_past_the_bounds_is_one_usage_error(self, argv, error):
        start = time.perf_counter()
        code, out, err = invoke(*argv)
        assert time.perf_counter() - start < 0.1
        assert (code, out, err) == (1, "", f"error: usage: {error}\n")

    @pytest.mark.parametrize("command", ["susy", "transform"])
    def test_a_at_the_digit_bound_is_printed(self, command):
        a = F(1, 3 * 10**2047)  # a denominator of 2048 digits
        assert invoke_json(command, f"--a={a}")["a"] == str(a)

    def test_binding_at_the_exponent_bound_is_printed(self):
        data = invoke_json("weyl", "--hamiltonian", "M*x", "--bind", "M=1e4096")
        assert data["operator"]["terms"][0]["poly"][0]["p"] == str(10**4096)


class TestErrorContract:
    """run reports every ValueError as a domain error, so the package's own
    error classes must be ValueErrors for a bad input to end in one line."""

    def test_every_package_error_is_a_value_error(self):
        classes = [
            obj
            for info in pkgutil.iter_modules(pdmbubble.__path__)
            for module in [importlib.import_module(f"pdmbubble.{info.name}")]
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
        assert cli.UsageError in classes
        classes.remove(cli.UsageError)
        assert len(classes) >= 10  # the scan found the modules
        assert [c for c in classes if not issubclass(c, ValueError)] == []

    @pytest.mark.parametrize("argv", [
        ("transform", "--a=0", "--pipeline", "transform-first"),
        ("weyl", "--hamiltonian", "p^3"),
        ("weyl", "--hamiltonian", "Q*x"),
    ])
    def test_reachable_domain_error_is_one_line(self, argv):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: domain: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestParserReuse:
    """run builds its parser once; successive calls share no state."""

    def test_one_parser_for_every_call(self):
        assert cli.build_parser() is cli.build_parser()

    def test_bindings_do_not_carry_over(self):
        ham = ("weyl", "--hamiltonian", "p^2/(2*Q*x^3)")
        bound = invoke_json(*ham, "--bind", "Q=4")
        by_order = {t["order"]: t["poly"] for t in bound["operator"]["terms"]}
        assert by_order[2][0]["p"] == "-1/8"
        code, out, err = invoke(*ham)  # Q=4 from the call before is gone
        assert (code, out) == (2, "")
        assert err.startswith("error: domain:")

    def test_good_call_after_usage_error(self):
        code, out, err = invoke("susy", "--a=1/0")
        assert (code, out) == (1, "")
        code, out, err = invoke("susy", "--a=-1/3")
        assert (code, err) == (0, "")
        assert json.loads(out)["a"] == "-1/3"


class TestEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(pdmbubble.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pdmbubble.cli", "susy", "--a=-1/3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == invoke("susy", "--a=-1/3")[1]
