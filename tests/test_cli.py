import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pdmbubble
from pdmbubble.cli import MAX_POINTS, run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_pressure_ratio(self):
        data = invoke_json("params", "--pressure-ratio", "0.8")
        assert float(data["inputs"]["P"]) == pytest.approx(0.8 * 8.1445e4)
        assert float(data["R_c"]) == pytest.approx(5.0 * 2.94677389649e-9)

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

    def test_superheated_required(self):
        code, out, err = invoke("params", "--pressure-ratio", "1.2")
        assert code == 2
        assert err.startswith("error: domain:")

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

    @pytest.mark.parametrize("binding", ["M=abc", "M=1/0"])
    def test_non_rational_binding_is_usage_error(self, binding):
        code, out, err = invoke(
            "weyl", "--hamiltonian", "p^2/(2*M*x^3)", "--bind", binding
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: usage: bad binding")
        assert err.count("\n") == 1


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
        ],
    )
    def test_nonpositive_z_is_one_domain_error(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: domain:")
        assert ("requires finite z" if "inf" in argv else "requires z > 0") in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [("spectrum", "--a=-1/3"), ("scan",)])
    def test_points_above_cap_is_domain_error(self, command):
        code, out, err = invoke(*command, "--points", str(MAX_POINTS + 1))
        assert (code, out) == (2, "")
        assert err == f"error: domain: --points must be at most {MAX_POINTS}\n"


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

    def test_failing_ratio_prints_no_rows(self):
        code, out, err = invoke("scan", "--pressures", "0.8,1.2", "--points", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: domain:")


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
