import json
import random
import time

import pytest

from multischeme.cli import main

INPUT = """\
# a multiplicity-four structure on the line x = y = 0
ring z0,z1,x,y / char 0 / grevlex
support x, y
(x^2 + z0*y,
 y^2)
"""


@pytest.fixture
def infile(tmp_path):
    p = tmp_path / "structure.ms"
    p.write_text(INPUT)
    return str(p)


def test_gb_prints_reduced_basis(infile, capsys):
    assert main(["gb", infile]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(x^2 + z0*y, y^2)"


def test_hilb_plain_and_pbasis(infile, capsys):
    assert main(["hilb", infile]) == 0
    assert capsys.readouterr().out.strip() == "4*P_1 - 4*P_0"
    assert main(["hilb", infile, "--pbasis"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"basis": "P", "coeffs": {"1": 4, "0": -4}}


def test_cm_verdict(infile, capsys):
    assert main(["cm", infile]) == 0
    assert capsys.readouterr().out.strip() == "locally-cm: true"


def test_filt_report_is_json(infile, capsys):
    assert main(["filt", infile]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["multiplicity"] == 4
    assert rep["verdicts"]["type_i"] is True
    assert len(rep["filtration"]) == 4


def test_verify_single_scenario(capsys):
    assert main(["verify", "hm-hilbert"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1 scenarios passed" in out


def test_verify_json_format(capsys):
    assert main(["verify", "degree3-catalog", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["exit_code"] == 0


def test_verify_unknown_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 3
    assert "argument scenario: invalid choice: 'nope'" in capsys.readouterr().err


def test_catalog_unknown_action_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "foo"])
    assert exc.value.code == 3
    assert "argument action: invalid choice: 'foo' (choose from 'list')" in capsys.readouterr().err


def test_missing_ring_declaration_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.ms"
    p.write_text("(x, y)\n")
    assert main(["gb", str(p)]) == 3


@pytest.mark.parametrize("command", ["gb", "filt"])
def test_repeated_support_variable_is_usage_error(tmp_path, capsys, command):
    p = tmp_path / "repeated.ms"
    p.write_text(INPUT.replace("support x, y", "support x, x"))
    assert main([command, str(p)]) == 3
    assert "support variable x repeated" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [("gb", 0), ("hilb", 0), ("filt", 3), ("cm", 3)])
def test_only_the_structure_commands_need_a_support(tmp_path, capsys, command, code):
    # gb and hilb read no support, so a ring without x, y needs no support line
    p = tmp_path / "no_xy.ms"
    p.write_text("ring a,b,c / char 0 / grevlex\n(a^2, b*c)\n")
    assert main([command, str(p)]) == code
    err = capsys.readouterr().err
    assert ("no support declaration and no default x, y variables" in err) == (code == 3)
    assert "Traceback" not in err


def test_missing_file_is_usage_error(capsys):
    assert main(["gb", "/nonexistent/file.ms"]) == 3


def test_bad_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


@pytest.mark.parametrize(
    "decl, message",
    [
        ("ring z,x,y / char 4", "prime"),
        ("ring z,x,x,y", "duplicate"),
        ("ring z,x,y / char abc", "integer"),
        ("ring z,x,y / char \u00b2", "integer"),  # a digit, but not a decimal one
        ("ring z,x,y / char %d" % (2**61 + 1), "prime"),
        ("ring z,x,y / char 3317044064679887385961981", "below"),
        ("ring z,x,y / char %d" % (2**89 - 1), "below"),
        ("ring z,x,y / char 0 / block 9", "block of 9 variables in a ring of 3"),
        ("ring z0 x y", "variable name 'z0 x y' is not one identifier"),
    ],
)
def test_bad_ring_declaration_is_usage_error(tmp_path, capsys, decl, message):
    p = tmp_path / "bad.ms"
    p.write_text(decl + "\n(x, y)\n")
    assert main(["gb", str(p)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gb", "cm", "hilb", "filt"])
def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    p = tmp_path / "latin1.ms"
    p.write_bytes(INPUT.encode().replace(b"z0*y", b"z0*y \xff"))
    assert main([command, str(p)]) == 3
    assert "can't decode byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gb", "hilb", "cm"])
def test_denominator_divisible_by_the_characteristic_is_a_usage_error(tmp_path, capsys, command):
    p = tmp_path / "third.ms"
    p.write_text("ring x,y,z / char 3\n(x^2 + 1/3*y, z)\n")
    assert main([command, str(p)]) == 3
    assert "denominator 3 vanishes mod 3" in capsys.readouterr().err


def test_large_prime_characteristic_is_accepted_quickly(tmp_path, capsys):
    # 2^61 - 1 is prime; trial division up to its square root never finished
    p = tmp_path / "big.ms"
    p.write_text("ring z,x,y / char %d\n(x^2 - 3*y, y*z)\n" % (2**61 - 1))
    start = time.perf_counter()
    assert main(["gb", str(p)]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.strip() == "(x^2 + %d*y, z*y)" % (2**61 - 4)


def test_max_degree_guard_makes_inconclusive(tmp_path, capsys):
    p = tmp_path / "deep.ms"
    p.write_text("ring x,y / char 0 / grevlex\n(x^5 - y^4, x*y^4 - x^3)\n")
    assert main(["--max-degree", "2", "gb", str(p)]) == 2


def test_max_degree_zero_is_a_budget_not_the_default(tmp_path, capsys):
    # the default budget of 40 computes this basis, whose one S-pair is
    # reduced; a budget of 0 must not
    p = tmp_path / "pair.ms"
    p.write_text(INPUT.replace("y^2)", "x*y)"))
    assert main(["gb", str(p)]) == 0
    assert main(["--max-degree", "0", "gb", str(p)]) == 2
    assert "exceeds budget 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gb", "hilb"])
@pytest.mark.parametrize("ideal, code", [("(x^41, y)", 0), ("(x^41, x*y)", 2)])
def test_degree_budget_counts_only_reduced_pairs(tmp_path, capsys, command, ideal, code):
    # the pair of coprime leads x^41, y is discarded by the product criterion
    p = tmp_path / "deep.ms"
    p.write_text("ring x,y,z\n%s\n" % ideal)
    assert main([command, str(p)]) == code
    assert ("exceeds budget 40" in capsys.readouterr().err) == bool(code)


@pytest.mark.parametrize("command", ["filt", "cm"])
@pytest.mark.parametrize("ideal, message", [
    ("(x)", "radical of I_Y misses y"),
    ("(x, x*z0 + z1*y + z0^2)", "generator z0^2 + z0*x + z1*y not supported on X"),
])
def test_a_structure_refused_by_validation_exits_1(tmp_path, capsys, command, ideal, message):
    p = tmp_path / "refused.ms"
    p.write_text("ring z0,z1,x,y\nsupport x, y\n%s\n" % ideal)
    assert main([command, str(p)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("command", ["filt", "cm"])
def test_an_index_past_the_search_budget_is_inconclusive(tmp_path, capsys, command):
    # x and y lie in the radical of (x^40, y^40), whose index 78 is past
    # the search's 64: the structure stands, and every reading of its index
    # is the same spent budget
    p = tmp_path / "deep.ms"
    p.write_text("ring z0,z1,x,y\nsupport x, y\n(x^40, y^40)\n")
    assert main([command, str(p)]) == 2
    assert capsys.readouterr() == ("", "inconclusive: nilpotency index exceeds 64, the search budget\n")


@pytest.mark.parametrize("command, code", [("filt", 3), ("cm", 3), ("gb", 0), ("hilb", 0)])
def test_support_with_every_variable_is_a_usage_error(tmp_path, capsys, command, code):
    p = tmp_path / "empty.ms"
    p.write_text("ring x,y\n(x^2, y)\n")
    assert main([command, str(p)]) == code
    err = capsys.readouterr().err
    assert ("takes every variable" in err) == (code == 3)


def test_negative_max_degree_is_a_usage_error(infile, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--max-degree", "-1", "gb", infile])
    assert exc.value.code == 3
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("option, argv", [
    ("--max-degree", ["--max-degree=--", "verify", "hm-hilbert"]),
    ("--char", ["verify", "hm-hilbert", "--char=--"]),
    ("--seed", ["verify", "hm-hilbert", "--seed=--"]),
    ("--format", ["verify", "hm-hilbert", "--format=--"]),
    # argparse takes a unique prefix of an option for the option
    ("--max", ["--max=--", "verify", "hm-hilbert"]),
    ("--se", ["verify", "hm-hilbert", "--se=--"]),
    # a top-level option after the subcommand is the top level's to refuse
    ("--max-degree", ["verify", "hm-hilbert", "--max-degree=--"]),
])
def test_an_option_whose_joined_value_is_a_double_dash_is_a_usage_error(capsys, option, argv):
    # argparse would store [] for the value and skip its type and choices;
    # the parser that owns the option refuses it, under its own usage line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    prog = "ms" if option.startswith("--max") else "ms verify"
    assert out == "" and err.startswith("usage: %s [-h] " % prog)
    assert err.splitlines()[-1] == "%s: error: argument %s: expected one argument" % (prog, option)


@pytest.mark.parametrize("char, message", [
    ("4", "prime"), ("-3", "prime"), (str(2**82), "below"),
    # past CPython's 4300-digit limit on int(str), read as a ring declaration reads it
    pytest.param("1" * 4301, "below", id="4301-digits-below"),
    ("abc", "must be a non-negative integer, got 'abc'"),
])
def test_verify_rejects_a_characteristic_that_is_not_a_field(char, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-3.6", "--char", char])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert message in err
    assert "sys.set_int_max_str_digits" not in err and "decimal" not in err


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 30
    assert all("mult=" in line for line in out)
    assert any("chars=p0,p2" in line for line in out)


@pytest.mark.parametrize("order, printed", [("grevlex", "-y^2 + x"), ("lex", "x - y^2")])
def test_hilb_of_an_inhomogeneous_ideal_is_a_usage_error(tmp_path, capsys, order, printed):
    # the Hilbert series of a non-graded ideal depends on the order: before
    # this check, (x - y^2) gave 2*P_1 - P_0 under grevlex and P_1 under lex
    p = tmp_path / "affine.ms"
    p.write_text("ring x,y,z / char 0 / %s\n(x - y^2)\n" % order)
    assert main(["hilb", str(p)]) == 3
    assert "inhomogeneous generator %s has no" % printed in capsys.readouterr().err
    assert main(["gb", str(p)]) == 0


@pytest.mark.parametrize("line", ["support", "support ,"])
@pytest.mark.parametrize("command", ["gb", "filt"])
def test_support_line_without_variables_is_a_usage_error(tmp_path, capsys, command, line):
    p = tmp_path / "bare.ms"
    p.write_text(INPUT.replace("support x, y", line))
    assert main([command, str(p)]) == 3
    err = capsys.readouterr().err
    assert "empty support declaration" in err and "expected '('" not in err


def test_ring_declaration_separated_by_a_tab(tmp_path, capsys):
    p = tmp_path / "tab.ms"
    p.write_text("ring\tx,y,z\n(x^2, y)\n")
    assert main(["gb", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "(x^2, y)"


@pytest.mark.parametrize("command", ["hilb", "filt", "cm"])
def test_inhomogeneous_input_is_a_usage_error_for_every_projective_command(
    tmp_path, capsys, command
):
    p = tmp_path / "affine.ms"
    p.write_text("ring x,y,z\n(x - y^2)\n")
    assert main([command, str(p)]) == 3
    assert "inhomogeneous generator -y^2 + x" in capsys.readouterr().err


def test_an_exponent_past_the_packed_limit_is_inconclusive(tmp_path, capsys):
    # the Groebner kernel packs each exponent in 15 bits: 40000 is a guard
    # trip, never a traceback or a wrapped exponent; 32767 still computes
    p = tmp_path / "huge.ms"
    p.write_text("ring x,y\n(x^40000 - y^40000)\n")
    assert main(["gb", str(p)]) == 2
    assert capsys.readouterr().err == (
        "inconclusive: Groebner kernel: exponent 40000 exceeds the limit 32767\n")
    p.write_text("ring x,y\n(x^32767 - y^32767)\n")
    assert main(["gb", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "(x^32767 - y^32767)"


@pytest.mark.parametrize("command", ["gb", "filt", "cm", "hilb"])
@pytest.mark.parametrize("power", ["x^40000", "x^16384*x^16384"])
def test_every_command_refuses_an_exponent_past_the_limit(tmp_path, capsys, command, power):
    p = tmp_path / "huge.ms"
    p.write_text("ring z0,z1,x,y\n(%s, y)\n" % power)
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("inconclusive: Groebner kernel: exponent ") and "Traceback" not in err


@pytest.mark.parametrize("poly", ["(x+y+z)^250", "(x+y+z)^500", "(x+y+z)^89*(x+y+z)^89",
                                  "(2^30000)^300*x",
                                  # long coefficients, rational ones, and many products
                                  "(1000000*x+999999*y)^1023", "(x/3+y/5)^500",
                                  pytest.param(" + ".join(["(x+y)^100*(x+y)^100"] * 10),
                                               id="ten-products")])
def test_a_short_input_past_the_parser_budget_is_inconclusive(tmp_path, capsys, poly):
    p = tmp_path / "big.ms"
    p.write_text("ring z0,z1,x,y,z\nsupport x, y\n(%s)\n" % poly)
    start = time.perf_counter()
    assert main(["gb", str(p)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("inconclusive: parser: ") and err.count("\n") == 1
    assert err.endswith(" takes the input past the size budget 65536\n")


# numbers just past CPython's 4300-digit limit on int <-> str conversion
_LONG = "1" * 4301
_LONG_INPUTS = {  # case -> (ring declaration, ideal, exit code)
    "computed-coefficient": ("ring z0,z1,x,y", "(2^14300*x^2 + z0*y, y^2)", 0),
    "coefficient-literal": ("ring z0,z1,x,y", "(x^2 + %s*z0*y, y^2)" % _LONG, 0),
    "exponent-literal": ("ring z0,z1,x,y", "(x^%s, y)" % _LONG, 2),
    "characteristic-literal": ("ring z0,z1,x,y / char %s" % _LONG, "(x, y)", 3),
}


@pytest.mark.parametrize("command", ["gb", "filt", "cm", "hilb"])
@pytest.mark.parametrize("case", sorted(_LONG_INPUTS))
def test_long_numbers_get_documented_exit_codes(tmp_path, capsys, command, case):
    """A coefficient of any length is read and printed exactly; an exponent
    literal past the limit trips the exponent guard and a characteristic
    literal is a usage error, each in one line on stderr."""
    from decimal import Decimal

    decl, ideal, code = _LONG_INPUTS[case]
    p = tmp_path / "long.ms"
    p.write_text("%s\nsupport x, y\n%s\n" % (decl, ideal))
    assert main([command, str(p)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        printed = {"computed-coefficient": "x^2 + 1/%s*z0*y" % Decimal(2**14300),
                   "coefficient-literal": "x^2 + %s*z0*y" % _LONG}[case]
        assert (printed in out) == (command in ("gb", "filt"))
    else:
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith({2: "inconclusive: Groebner kernel: exponent 1111",
                               3: "%s: characteristic must be below " % p}[code])


def test_no_command_resolves_r_mod_i_over_the_whole_ring(infile, capsys, rebind):
    # minimal generators come from the unit prune of the first syzygies, so
    # neither a layer presentation nor a thickening resolves R/I over R
    import multischeme.ideals as ideals

    calls = []

    def counting(original):
        def wrapped(*args):
            calls.append(args)
            return original(*args)

        return wrapped

    rebind(ideals, "quotient_resolution", counting)
    assert main(["filt", infile]) == 0
    assert main(["verify", "thicken-roundtrip"]) == 0
    assert "1/1 scenarios passed" in capsys.readouterr().out
    assert calls == []


def test_verify_all_reads_the_catalog_once(monkeypatch, capsys):
    import multischeme.catalog as catalog

    calls = []
    load = catalog._load_raw

    def counting(*args):
        calls.append(args)
        return load(*args)

    monkeypatch.setattr(catalog, "_load_raw", counting)
    assert main(["verify", "all"]) == 0
    assert "13/13 scenarios passed" in capsys.readouterr().out
    assert len(calls) == 1


def _random_input(rng):
    """A ring of 1-3 z's and 1-3 support variables in a random characteristic
    and order, and 1-4 forms in I_X of degree <= 4; often the pure powers of
    the support variables too, so that most inputs are structures."""
    zs, xs = ["z%d" % i for i in range(rng.randint(1, 3))], ["x", "y", "w"][:rng.randint(1, 3)]
    forms = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(1, 4)
        forms.append(" + ".join(
            "%d*%s" % (rng.choice((1, -1, 2, 3)),
                       "*".join([rng.choice(xs)] + rng.choices(zs + xs, k=degree - 1)))
            for _ in range(rng.randint(1, 3))))
    if rng.random() < 0.6:
        forms += ["%s^%d" % (v, rng.randint(1, 4)) for v in xs]
    return "ring %s / char %d / %s\nsupport %s\n(%s)\n" % (
        ",".join(zs + xs), rng.choice((0, 2, 3, 5, 32003)), rng.choice(("grevlex", "lex")),
        ", ".join(xs), ", ".join(forms))


# the documented exit codes of each single-file command
_CODES = {"gb": {0, 2, 3}, "hilb": {0, 2, 3}, "filt": {0, 1, 2, 3}, "cm": {0, 1, 2, 3}}
_STDERR = {0: "", 1: "error: ", 2: "inconclusive: "}


def test_random_inputs_get_documented_exit_codes(tmp_path, capsys):
    # 100 seeded inputs, a quarter with one character replaced, through every
    # single-file command under a degree budget: each ends with a documented
    # code and its stderr line, and none raises
    rng, seen = random.Random(4), set()
    p = tmp_path / "fuzz.ms"
    for n in range(100):
        text = _random_input(rng)
        if rng.random() < 0.25:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(("", "^", "(", ",", "x", "/", "9", "*")) + text[i + 1:]
        p.write_text(text)
        for command, codes in _CODES.items():
            code = main(["--max-degree", "12", command, str(p)])
            out, err = capsys.readouterr()
            assert code in codes, (command, text, code, err)
            assert err.startswith(_STDERR.get(code, "")) and "Traceback" not in err, (command, text)
            assert bool(err) == (code != 0), (command, text, err)
            seen.add(code)
    assert seen == {0, 1, 2, 3}
