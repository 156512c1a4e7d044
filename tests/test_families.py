from math import comb

import pytest

from multischeme.families import _split_block, build_family
from multischeme.ideals import Ideal, same_zero_locus
from multischeme.modules import matrix_rank
from multischeme.ring import PolyRing


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build_family("mystery")


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_family("primitive", nu=1)
    with pytest.raises(ValueError):
        build_family("koszul", n=1)
    with pytest.raises(ValueError):
        build_family("split", a=-1)
    with pytest.raises(ValueError):
        build_family("ci_subsets", c=3)
    with pytest.raises(ValueError):
        build_family("nontypeI", a=0)


def test_primitive_family_manifest():
    fam = build_family("primitive", nu=2, n=2)
    assert len(fam.structures) == 3
    for st, expect in zip(fam.structures, fam.manifest):
        assert st.multiplicity() == expect["multiplicity"] == 3
        cm, _ = st.locally_cm()
        assert cm == expect["locally_cm"]


def test_koszul_family_hilbert_manifest():
    fam = build_family("koszul", n=2)
    (st,), (entry,) = fam.structures, fam.manifest
    assert st.multiplicity() == entry["multiplicity"] == 4
    assert st.hilbert_polynomial() == entry["hilb"]
    cm, _ = st.locally_cm()
    assert cm


def test_ci_subsets_multiplicities_follow_subset_size():
    fam = build_family("ci_subsets")
    assert [e["multiplicity"] for e in fam.manifest] == [1, 2, 2, 3]
    for st, entry in zip(fam.structures, fam.manifest):
        assert st.multiplicity() == entry["multiplicity"]
    # containment of ideals is reverse containment of subsets
    ideals = [st.ideal for st in fam.structures]
    assert ideals[0].contains_ideal(ideals[1])
    assert ideals[1].contains_ideal(ideals[3])
    assert not ideals[1].contains_ideal(ideals[2])


def test_split_family_decomposes():
    fam = build_family("split", n=1, a=0, b=1)
    triple, da, db = fam.structures
    assert triple.multiplicity() == 3
    assert da.multiplicity() == 2 and db.multiplicity() == 2
    assert triple.hilbert_polynomial() == fam.manifest[0]["hilb"]
    assert triple.ideal.contains_ideal(Ideal(triple.embedding.ring, []))
    # the x and w names follow the z-exponents in ascending lex order
    assert [str(g) for g in triple.ideal.gens[:6]] == [
        "z0*x0 - z1*x1",
        "z0*z1*w0 - z1^2*w1",
        "z0^2*w0 - z0*z1*w1",
        "z0^2*w0 - z1^2*w2",
        "z0*z1*w1 - z1^2*w2",
        "z0^2*w1 - z0*z1*w2",
    ]
    # each double contains the triple
    assert da.ideal.contains_ideal(triple.ideal) or triple.ideal.contains_ideal(da.ideal)


def _reference_block(ring, z_names, d, names):
    """The split block as a triple loop over t1, t2, t3, each binomial kept
    the first time a set of the pairs (t1, t2), (t3, t4) is met."""
    base = PolyRing(z_names)
    tuples = base.exponents(d)[::-1]
    var = {t: ring.var(nm) for t, nm in zip(tuples, names)}
    z = [ring.var(nm) for nm in z_names]

    def z_mono(tup):
        m = ring.one()
        for zi, e in zip(z, tup):
            m = m * zi ** e
        return m

    rels, seen = [], set()
    for t1 in tuples:
        for t2 in tuples:
            for t3 in tuples:
                t4 = tuple(p + q - r for p, q, r in zip(t1, t2, t3))
                if any(e < 0 for e in t4) or sum(t4) != sum(t2):
                    continue
                if t4 not in var or (t1, t2) == (t3, t4):
                    continue
                key = frozenset(((t1, t2), (t3, t4)))
                if key in seen:
                    continue
                seen.add(key)
                rels.append(var[t1] * z_mono(t2) - var[t3] * z_mono(t4))
    return rels


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_split_block_matches_the_deduplicated_triple_loop(n):
    z_names = tuple("z%d" % i for i in range(n + 1))
    for a in range(3):
        x_names = tuple("x%d" % i for i in range(comb(n + a + 1, n)))
        ring = PolyRing(z_names + x_names + ("w0",), char=5)
        block = _split_block(ring, z_names, a + 1, x_names)
        assert block == _reference_block(ring, z_names, a + 1, x_names)
        assert len(block) == len(set(block))


def test_bundle_family_smoke():
    fam = build_family("bundle")
    (st,), (entry,) = fam.structures, fam.manifest
    assert st.multiplicity() == entry["multiplicity"] == 3
    cm, _ = st.locally_cm()
    assert cm


def test_family_char_parameter_is_recorded():
    fam = build_family("primitive", nu=2, n=2, char=5)
    assert fam.params["char"] == 5
    assert fam.structures[0].embedding.ring.char == 5
    assert fam.structures[0].multiplicity() == 3


FAMILIES = ["primitive", "koszul", "nystruktur", "bundle", "split", "ci_subsets", "nontypeI"]


@pytest.mark.parametrize("char", [0, 5])
def test_every_manifest_key_holds_at_default_parameters(char):
    """Each family's manifest is what the engine computes: a layer's rank is
    its generator count less the rank of its relation matrix, a filtration
    term's multiplicity its degree over the support's, and a locus is
    compared by its zero set."""
    with pytest.raises(ValueError, match=str(sorted(FAMILIES)).replace("[", r"\[")):
        build_family("mystery")

    def locus(ring, names):
        return Ideal(ring, [ring.var(n) for n in names])

    for name in FAMILIES:
        fam = build_family(name, char=char)
        for st, entry in zip(fam.structures, fam.manifest):
            ring, support = st.embedding.ring, st.embedding.support_ideal()
            filt = st.filtration()
            computed = {
                "multiplicity": st.multiplicity,
                "locally_cm": lambda: st.locally_cm()[0],
                "type_i": lambda: st.is_type_I()[0],
                "hilb": st.hilbert_polynomial,
                "filtration_multiplicities": lambda: [
                    i.dimension_degree()[1] // support.dimension_degree()[1] for i in filt.ideals],
                "layer_ranks": lambda: [
                    layer.rank - matrix_rank(layer.matrix()) for layer in filt.layers],
                "subset": lambda: [
                    i for i, v in enumerate(st.embedding.support_vars)
                    if not st.ideal.contains(ring.var(v))],
            }
            for key, expected in entry.items():
                if key == "non_cm_locus":
                    assert same_zero_locus(st.locally_cm()[1], locus(ring, expected)), name
                elif key == "non_cm_term_locus":
                    assert any(not cm and same_zero_locus(bad, locus(ring, expected))
                               for cm, bad in map(st.locally_cm, range(len(filt.ideals)))), name
                else:
                    assert computed[key]() == expected, (name, key)
