import pytest

from multischeme.modules import GradedModule
from multischeme.quotients import line_bundle_quotients, solution_space
from multischeme.ring import PolyRing


@pytest.fixture
def sub():
    return PolyRing(("z0", "z1", "z2"))


def test_solution_space_of_free_module(sub):
    free = GradedModule(sub, (2, 2, 2), [[], [], []])
    # maps O(-2)^3 -> O(-2): three constant rows
    maps = solution_space(free, -2)
    assert len(maps) == 3
    # twisting down further needs linear entries: 3 slots x 3 monomials
    assert len(solution_space(free, -1)) == 9
    assert solution_space(free, -3) == []


def test_free_module_surjects_at_its_own_twist(sub):
    free = GradedModule(sub, (2, 2, 2), [[], [], []])
    (v,) = line_bundle_quotients(free, (-2, -2))
    assert v.verdict == "SURJECTION"
    assert any(f.is_constant() for f in v.witness)


def test_exact_none_below_generator_degrees(sub):
    free = GradedModule(sub, (2,), [[]])
    (v,) = line_bundle_quotients(free, (-3, -3))
    assert v.verdict == "EXACT-NONE"
    assert v.dim == 0 and v.basis == []


@pytest.mark.parametrize("names", [("x", "y", "z"), ("a0", "a1", "a2")])
def test_singular_matrix_check_names_its_coefficients_apart_from_the_ring(names):
    # the generic combination of the three basis maps has coefficient
    # variables of its own; a0, a1, a2 used to clash with the ring's names
    r = PolyRing(names)
    o = r.zero()
    (v,) = line_bundle_quotients(GradedModule(r, (0, 0, 0), [[o], [o], [o]]), (1, 1))
    assert v.verdict == "SURJECTION"


def test_conormal_style_module_dimension_certificate(sub):
    # K/IK for I = (x^2, y) on the line: one generator in degree 2, one in 1,
    # no relations over the support ring
    mod = GradedModule(sub, (2, 1), [[], []])
    verdicts = {v.twist: v for v in line_bundle_quotients(mod, (-2, 0))}
    assert verdicts[-2].verdict == "SURJECTION"
    assert verdicts[-1].verdict == "SURJECTION"
    # at twist 0 every map has positive-degree entries in too few variables
    assert verdicts[0].verdict == "CERTIFIED-NONE"
    assert verdicts[0].certificate["kind"] == "dimension"


def test_sampling_is_seed_deterministic(sub):
    z0, z1, z2 = map(sub.var, sub.names)
    # rank-2 module whose relation ties the generators: maps are pairs of
    # linear forms, never surjective but with full variable support
    mod = GradedModule(sub, (0, 0), [[z0], [-z1]])
    a = line_bundle_quotients(mod, (1, 1), samples=25, seed=5)[0]
    b = line_bundle_quotients(mod, (1, 1), samples=25, seed=5)[0]
    assert a.to_json() == b.to_json()
    c = line_bundle_quotients(mod, (1, 1), samples=25, seed=6)[0]
    assert c.verdict == a.verdict


def test_twist_verdict_json_shape(sub):
    free = GradedModule(sub, (0,), [[]])
    (v,) = line_bundle_quotients(free, (0, 0))
    data = v.to_json()
    assert set(data) == {
        "twist", "dim", "basis", "verdict", "witness", "certificate", "samples_tested",
    }
    assert data["verdict"] == "SURJECTION"
    assert data["witness"] == ["1"]


def test_the_prop_3_3_scan_makes_no_reduced_basis_and_no_hilbert_series(monkeypatch):
    """Surjectivity is read off the leads of the unreduced Buchberger run:
    the seed-0 scan of J/IJ interreduces nothing and makes no Hilbert series,
    and its verdicts are the ones Prop 3.3 predicts."""
    import multischeme.groebner as groebner
    import multischeme.ideals as ideals
    from multischeme.scenarios import _nonexistence_module

    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(groebner, "interreduce")
    counting(ideals, "interreduce")
    counting(ideals, "ideal_hilbert_series")
    _, module, _, _ = _nonexistence_module()
    verdicts = [v.verdict for v in line_bundle_quotients(module, (-10, 0), samples=100, seed=0)]
    assert verdicts == ["EXACT-NONE"] * 8 + ["CERTIFIED-NONE", "SAMPLED-NONE", "SAMPLED-NONE"]
    assert calls == []
