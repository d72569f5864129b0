"""One-dimensional characters, their extensions and inductions, and the
reflection representation with its specialization at v=0."""

import itertools

import numpy as np
import pytest

from heckelab import (
    Character,
    Laurent,
    LaurentMatrix,
    CharacterExtends,
    DatumMismatch,
    HeckeAlgebra,
    NotSimplyLaced,
    RelationsFail,
    build_root_datum,
    character_extends,
    decompose_at_v0,
    enumerate_characters,
    induce_character,
    is_discrete_character,
    reflection_module,
)
from heckelab.modules import stabilizer_and_twist
from geom_oracle import laurent_bank, laurent_check_relations

CATALOG = [
    ("A", 1, 1), ("A", 1, [1, 2]),
    ("A", 2, 1), ("A", 3, 1),
    ("B", 3, 1), ("B", 3, [2, 1]),
    ("C", 2, [1, 1, 1]), ("C", 2, [2, 1, 1]), ("C", 2, [1, 2, 2]),
    ("C", 2, [1, 2, 3]),
    ("C", 3, [1, 1, 1]), ("C", 3, [2, 3, 3]),
    ("D", 4, 1), ("F", 4, 1), ("G", 2, 1),
]


def test_character_counts():
    for kind, rank, w in CATALOG:
        d = build_root_datum(kind, rank, weights=w)
        H = HeckeAlgebra(d)
        generic = enumerate_characters(H, "generic")
        modp = enumerate_characters(H, "modp")
        assert len(generic) == 2 ** len(d.classes), d.label()
        assert len(modp) == 2 ** (rank + 1), d.label()
        assert len({ch.label() for ch in generic}) == len(generic)
        assert len({ch.label() for ch in modp}) == len(modp)


def test_characters_satisfy_relations():
    for kind, rank, w in CATALOG[:8]:
        d = build_root_datum(kind, rank, weights=w)
        H = HeckeAlgebra(d)
        for ch in enumerate_characters(H, "generic"):
            mod = ch.as_module(H)
            assert mod.dim == 1
            mod.check_relations()
        for ch in enumerate_characters(H, "modp"):
            mod = ch.as_module(H, p=5)
            assert mod.is_modular
            mod.check_relations()


def test_trivial_and_special():
    H = HeckeAlgebra(build_root_datum("C", 2))
    chars = enumerate_characters(H, "generic")
    trivial = [ch for ch in chars if ch.is_trivial()]
    special = [ch for ch in chars if ch.is_special()]
    assert len(trivial) == 1 and len(special) == 1
    assert trivial[0].label() == "(q, q, q)"
    assert special[0].label() == "(-1, -1, -1)"
    assert special[0].reduce().mode == "modp"


def test_extension_obstruction_families():
    """Non-extendable characters occur in exactly two situations."""
    failures = []
    for kind, rank, w in CATALOG:
        d = build_root_datum(kind, rank, weights=w)
        H = HeckeAlgebra(d)
        for ch in enumerate_characters(H, "generic"):
            flag, exts = character_extends(H, ch)
            if flag:
                assert exts, d.label()
            else:
                assert exts == ()
                failures.append((kind, rank, tuple(d.class_weights),
                                 ch.label()))
    expected = set()
    # rank one with both weights equal: the node swap is a symmetry of
    # the algebra but mixed-sign characters are not constant on it
    for lab in ["(q, -1)", "(-1, q)"]:
        expected.add(("A", 1, (1, 1), lab))
    # type C with the two end classes equally weighted
    for weights, labs in [
        ((1, 1, 1), ["(q, q, -1)", "(q, -1, q)", "(-1, q, -1)", "(-1, -1, q)"]),
        ((2, 1, 1), ["(q^2, q, -1)", "(q^2, -1, q)", "(-1, q, -1)", "(-1, -1, q)"]),
        ((1, 2, 2), ["(q, q^2, -1)", "(q, -1, q^2)", "(-1, q^2, -1)", "(-1, -1, q^2)"]),
    ]:
        for lab in labs:
            expected.add(("C", 2, weights, lab))
    for weights, labs in [
        ((1, 1, 1), ["(q, q, -1)", "(q, -1, q)", "(-1, q, -1)", "(-1, -1, q)"]),
        ((2, 3, 3), ["(q^2, q^3, -1)", "(q^2, -1, q^3)", "(-1, q^3, -1)", "(-1, -1, q^3)"]),
    ]:
        for lab in labs:
            expected.add(("C", 3, weights, lab))
    assert set(failures) == expected


def test_extension_counts():
    # the number of extensions equals the number of sign characters of
    # the symmetry group fixing the character
    H = HeckeAlgebra(build_root_datum("A", 1))
    for ch in enumerate_characters(H, "generic"):
        flag, exts = character_extends(H, ch)
        if flag:
            assert len(exts) == 2

    H = HeckeAlgebra(build_root_datum("D", 4))
    for ch in enumerate_characters(H, "generic"):
        flag, exts = character_extends(H, ch)
        assert flag and len(exts) == 4

    H = HeckeAlgebra(build_root_datum("A", 2))
    for ch in enumerate_characters(H, "generic"):
        flag, exts = character_extends(H, ch)
        assert flag and len(exts) == 1  # Z/3 has no sign characters

    for exts_list in [character_extends(H, ch)[1]
                      for ch in enumerate_characters(H, "generic")]:
        for ext in exts_list:
            assert ext.omega_signs is not None
            assert ext.omega_signs[0] == 1


def test_induced_module():
    H = HeckeAlgebra(build_root_datum("A", 1))
    chars = enumerate_characters(H, "generic")
    mixed = [ch for ch in chars if not character_extends(H, ch)[0]]
    assert len(mixed) == 2
    mod = induce_character(H, mixed[0])
    assert mod.dim == 2
    mod.check_relations()
    # the split at v = 0 recovers the pair of residual characters
    diag = [ch.values for ch in decompose_at_v0(mod)]
    assert sorted(diag) == sorted(ch.reduce().values for ch in mixed)

    with pytest.raises(CharacterExtends):
        induce_character(H, chars[0])


def test_one_stabilizer_answers_extension_and_induction(monkeypatch):
    """On every generic character of the README types and of C2-C4 and
    B3 with class weights in {1, 2, 3}, the stabilizer holds exactly the
    length-zero elements whose composed character is the character, the
    character extends exactly when its signs are constant on the node
    orbits of the group, and induction raises ``CharacterExtends`` at
    index one and answers at index two, the only indices these data
    reach.  A stabilizer of index four, patched in on D4, raises
    ``NoIndexTwoStructure``."""
    from heckelab import NoIndexTwoStructure, modules
    from heckelab.modules import _stabilizer
    from test_extweyl import README_TYPES
    data = [build_root_datum(kind, rank) for kind, rank in README_TYPES]
    data += [build_root_datum(kind, rank, weights=list(w))
             for kind, rank in [("B", 3), ("C", 2), ("C", 3), ("C", 4)]
             for w in itertools.product((1, 2, 3), repeat=len(
                 build_root_datum(kind, rank).classes))]
    indices = set()
    for d in data:
        H = HeckeAlgebra(d)
        perms, orbits = H.omega.perms, H.omega.node_orbits()
        for ch in enumerate_characters(H, "generic"):
            stab = _stabilizer(H, ch)
            assert stab == [i for i, perm in enumerate(perms)
                            if ch.compose_with_node_permutation(perm) == ch]
            constant = all(len({ch.sign_on_node(s) for s in orbit}) == 1
                           for orbit in orbits)
            assert character_extends(H, ch)[0] == constant
            index = len(perms) // len(stab)
            indices.add(index)
            if index == 1:
                with pytest.raises(CharacterExtends):
                    induce_character(H, ch)
            else:
                assert induce_character(H, ch).dim == 2
    assert indices == {1, 2}
    H = HeckeAlgebra(build_root_datum("D", 4))
    monkeypatch.setattr(modules, "_stabilizer", lambda alg, ch: [0])
    with pytest.raises(NoIndexTwoStructure, match="index 4"):
        induce_character(H, enumerate_characters(H)[0])


def test_induced_module_type_c():
    H = HeckeAlgebra(build_root_datum("C", 2))
    bad = [ch for ch in enumerate_characters(H, "generic")
           if not character_extends(H, ch)[0]]
    assert len(bad) == 4
    for ch in bad:
        mod = induce_character(H, ch)
        assert mod.dim == 2
        mod.check_relations()
        twin = ch.compose_with_node_permutation((2, 1, 0))
        diag = [c.values for c in decompose_at_v0(mod)]
        assert sorted(diag) == sorted(c.reduce().values for c in (ch, twin))


def test_reflection_module_shapes():
    for kind, rank in [("A", 2), ("A", 3), ("D", 4), ("D", 5), ("E", 6)]:
        d = build_root_datum(kind, rank)
        R = reflection_module(d)
        assert R.dim == rank + 1
        R.check_relations()
    for kind, rank in [("C", 2), ("G", 2), ("B", 3), ("F", 4), ("A", 1)]:
        with pytest.raises(NotSimplyLaced):
            reflection_module(build_root_datum(kind, rank))


def test_star_twist_is_an_involution():
    d = build_root_datum("D", 4)
    R = reflection_module(d)
    Rt = R.star_twist()
    Rt.check_relations()
    back = Rt.star_twist()
    assert not (back.smats - R.smats).coeffs.any()
    H = HeckeAlgebra(build_root_datum("C", 2))
    ch = enumerate_characters(H, "generic")[3]
    m = ch.as_module(H)
    assert not (m.star_twist().star_twist().smats - m.smats).coeffs.any()


def test_decompose_reflection_twist():
    d = build_root_datum("D", 4)
    comps = decompose_at_v0(reflection_module(d).star_twist())
    assert len(comps) == 5
    assert len({c.label() for c in comps}) == 5
    for c in comps:
        assert c.mode == "modp"
        assert sorted(set(c.values)) == [-1, 0]
        assert c.values.count(0) == 1
    # each affine node is singled out by exactly one component
    assert {c.values.index(0) for c in comps} == set(range(5))


def test_reduce_mod_p():
    d = build_root_datum("D", 4)
    Rm = reflection_module(d).star_twist().reduce_mod_p(5)
    assert Rm.is_modular and Rm.prime == 5
    Rm.check_relations()
    assert Rm.generic is not None
    with pytest.raises(ValueError):
        reflection_module(d).reduce_mod_p(6)
    with pytest.raises(ValueError):
        reflection_module(d).reduce_mod_p(1009 ** 2)


def test_reduce_mod_p_beyond_int64_products():
    # 4294967311 is prime and above 2^32: products of two residues leave
    # int64, so the relation check runs on Python ints
    d = build_root_datum("D", 4)
    Rm = reflection_module(d).star_twist().reduce_mod_p(4294967311)
    Rm.check_relations()
    assert Rm.smats.at_v0().max() == 4294967311 - 1


def test_character_helpers():
    d = build_root_datum("C", 2, weights=[1, 2, 3])
    H = HeckeAlgebra(d)
    ch = Character.generic(d, (1, -1, 1))
    assert ch.label() == "(q, -1, q^3)"
    assert ch.sign_on_class(0) == 1 and ch.sign_on_class(1) == -1
    assert ch.sign_on_node(0) == 1 and ch.sign_on_node(1) == 1
    # node 0 sits in the class of weight 3, so its value is q^3 = v^6
    assert ch.node_value(0) == Laurent.v(6)
    assert ch.node_value(1) == Laurent.v(2)
    assert ch.node_value(2) == -Laurent.one()
    red = ch.reduce()
    assert red.mode == "modp"
    assert red.values == (0, 0, -1)
    mod = ch.as_module(H)
    mod.check_relations()
    blob = ch.to_json()
    assert blob["mode"] == "generic"


def test_character_values_must_be_ints():
    """Values and length-zero signs are integers that are not bools: a
    bool, though ``True == 1``, is refused in either mode, and numpy
    integers are stored as Python ints, so the character equals, hashes
    and writes as its int twin."""
    d = build_root_datum("C", 2, weights=[1, 2, 2])
    bad = [lambda: Character.generic(d, (True, -1, 1)),
           lambda: Character.generic(d, (np.True_, -1, 1)),
           lambda: Character.generic(d, (1, -1, 1), (True, -1)),
           lambda: Character.generic(d, (1, -1, 1)).with_omega_signs(
               (1, False)),
           lambda: Character.modp(d, (False, -1, 0)),
           lambda: Character.generic(d, (1.0, -1, 1)),
           lambda: Character.generic(d, ("1", -1, 1))]
    for make in bad:
        with pytest.raises(ValueError):
            make()
    ints = Character.generic(d, (1, -1, 1), (1, -1))
    for signs in [np.array([1, -1, 1]), (np.int32(1), np.int64(-1), 1)]:
        ch = Character.generic(d, signs, np.array([1, -1]))
        assert all(type(v) is int for v in ch.values + ch.omega_signs)
        assert ch == ints and hash(ch) == hash(ints)
        assert ch.to_json() == ints.to_json()
        assert ch.to_json()["values"] == [1, -1, 1]
    modp = Character.modp(d, np.array([0, -1, 0]))
    assert all(type(v) is int for v in modp.values)


def test_characters_of_another_datum_are_refused():
    """A character is read only by the algebra of its own datum: a C2
    character on the B3 algebra and a C3 [1, 1, 1] character on C3
    [2, 1, 1] raise ``DatumMismatch`` in every reader, as in
    ``as_module``; an algebra of the character's datum built apart reads
    it."""
    c2 = build_root_datum("C", 2)
    c3 = build_root_datum("C", 3)
    cases = [(HeckeAlgebra(build_root_datum("B", 3)),
              enumerate_characters(c2)[1]),
             (HeckeAlgebra(build_root_datum("C", 3, weights=[2, 1, 1])),
              enumerate_characters(c3)[1])]
    readers = [is_discrete_character, character_extends, stabilizer_and_twist,
               induce_character, lambda H, ch: ch.as_module(H)]
    for H, ch in cases:
        for read in readers:
            with pytest.raises(DatumMismatch):
                read(H, ch)
    ch = enumerate_characters(c3)[1]
    again = HeckeAlgebra(build_root_datum("C", 3))
    assert again.datum is not ch.datum
    assert is_discrete_character(again, ch) == is_discrete_character(c3, ch)
    assert stabilizer_and_twist(again, ch) == stabilizer_and_twist(c3, ch)


def test_modp_character_values():
    d = build_root_datum("A", 2)
    chars = enumerate_characters(HeckeAlgebra(d), "modp")
    for ch in chars:
        assert ch.mode == "modp"
        assert set(ch.values) <= {0, -1}
        assert len(ch.values) == 3


def test_modp_characters_take_one_relation_check(monkeypatch):
    """The one check of a mod-p family stacks its members with at most two
    values -1, 1 + k + k(k-1)/2 of the 2^k for k affine nodes."""
    from heckelab.modules import FinModule
    calls = []
    check = FinModule.check_relations
    monkeypatch.setattr(FinModule, "check_relations",
                        lambda self: calls.append(self) or check(self))
    for kind, rank, w in [("E", 8, 1), ("D", 7, 1), ("C", 2, [1, 2, 2])]:
        d = build_root_datum(kind, rank, weights=w)
        H = HeckeAlgebra(d)
        calls.clear()
        chars = enumerate_characters(H, "modp")
        assert len(calls) == 1, d.label()
        k = rank + 1
        assert calls[0].smats.coeffs.shape[1] == 1 + k + k * (k - 1) // 2
        assert [ch.values for ch in chars] == list(
            itertools.product((0, -1), repeat=k))


def test_modp_check_and_full_family_check_agree_on_readme_types():
    """On every README type the check of the members with at most two
    values -1 passes, and so does the whole family of 2^|S| members
    checked by :func:`modules._check_family`."""
    from heckelab import modules
    from test_extweyl import README_TYPES
    for kind, rank in README_TYPES:
        H = HeckeAlgebra(build_root_datum(kind, rank))
        values = np.array([ch.values
                           for ch in enumerate_characters(H, "modp")])
        assert len(values) == 2 ** (rank + 1)
        modules._check_modp_family(H, values)
        modules._check_family(H, values, 0 * values, prime=5)


def _raised(check, *args, **kwargs):
    """The message, relation, member and node values of the
    :class:`RelationsFail` that ``check`` raises (and it must)."""
    with pytest.raises(RelationsFail) as caught:
        check(*args, **kwargs)
    exc = caught.value
    return str(exc), exc.relation, exc.member, exc.values


def test_planted_modp_failure_raises_as_the_full_family_check(monkeypatch):
    """A product family with choice set {1, -1} (either order) at one node
    and {0, -1} elsewhere breaks the quadratic relation at that node mod
    5.  The subset check fails, the whole family is then checked, and the
    :class:`RelationsFail` is exactly that of the full check: same member
    index over the whole family, relation and values."""
    from heckelab import modules
    sizes = []
    full = modules._check_family
    monkeypatch.setattr(
        modules, "_check_family",
        lambda alg, coeffs, *rest, **kw: sizes.append(len(coeffs))
        or full(alg, coeffs, *rest, **kw))
    moved = 0
    for kind, rank, node in [("A", 1, 0), ("C", 2, 1), ("D", 4, 4),
                             ("E", 8, 0), ("E", 8, 5), ("G", 2, 2)]:
        H, k = HeckeAlgebra(build_root_datum(kind, rank)), rank + 1
        for planted in ((1, -1), (-1, 1)):
            choices = [(0, -1)] * k
            choices[node] = planted
            values = np.array(list(itertools.product(*choices)))
            sizes.clear()
            got = _raised(modules._check_modp_family, H, values)
            assert sizes == [1 + k + k * (k - 1) // 2, 2 ** k]
            want = _raised(full, H, values, 0 * values, prime=5)
            assert got == want, (kind, rank, node, planted)
            assert got[1] == f"quadratic relation fails at node {node}"
            assert values[got[2][0], node] == 1
            few = (values != values[0]).sum(axis=1) <= 2
            sub = _raised(full, H, values[few], 0 * values[few], prime=5)
            moved += sub[2] != got[2]
    assert moved


def test_generic_characters_take_one_relation_check(monkeypatch):
    from heckelab import modules
    calls = []
    check = modules.FinModule.check_relations
    monkeypatch.setattr(modules.FinModule, "check_relations",
                        lambda self: calls.append(self) or check(self))
    for kind, rank, w in [("E", 8, 1), ("D", 7, 1), ("F", 4, 1),
                          ("G", 2, 1), ("C", 2, [1, 2, 2])]:
        d = build_root_datum(kind, rank, weights=w)
        calls.clear()
        chars = enumerate_characters(HeckeAlgebra(d), "generic")
        assert len(calls) == 1, d.label()
        assert [ch.values for ch in chars] == list(
            itertools.product((1, -1), repeat=len(d.classes)))
    # C2 [1, 2, 2]: eight members of 2 * 2 + 1 degree slices each
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 2]))
    for k in (1, 3, 5, 8):
        monkeypatch.setattr(modules, "FAMILY_SLICES", 5 * k)
        calls.clear()
        assert enumerate_characters(H, "generic") == chars
        assert len(calls) == -(-8 // k)


def test_reduction_checks_only_unchecked_modules(monkeypatch):
    """Evaluation at v = 0 followed by reduction mod p is a ring map, so
    classify on C2 [1, 2, 2] checks the character family and the answer
    module but not the answer's reduction mod p; an unchecked Laurent
    module that breaks the relations still fails in ``reduce_mod_p``."""
    from heckelab import key_result_search, modules
    calls = []
    check = modules.FinModule.check_relations
    monkeypatch.setattr(modules.FinModule, "check_relations",
                        lambda self: calls.append(self) or check(self))
    out = key_result_search(
        HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 2])))
    assert [m.prime for m in calls] == [None, None]
    assert out.module.prime == 5 and out.module.checked
    H = HeckeAlgebra(build_root_datum("A", 2))
    two = ((Laurent.of_int(2),),)
    bad = modules.FinModule(H, (two, two, two), None)
    with pytest.raises(RelationsFail):
        bad.reduce_mod_p(5)
    assert not bad.checked and calls[-1].prime == 5


def test_star_twist_checks_only_unchecked_modules(monkeypatch):
    """The sign involution is an algebra automorphism fixing the decorated
    length-zero elements, so the twist of the checked D4 reflection
    module is not checked again; the twist of an unchecked Laurent module
    that breaks the relations still fails in ``star_twist``."""
    from heckelab import modules
    calls = []
    check = modules.FinModule.check_relations
    monkeypatch.setattr(modules.FinModule, "check_relations",
                        lambda self: calls.append(self) or check(self))
    refl = reflection_module(HeckeAlgebra(build_root_datum("D", 4)))
    assert calls == [refl] and refl.checked
    twist = refl.star_twist()
    assert calls == [refl] and twist.checked
    H = HeckeAlgebra(build_root_datum("A", 2))
    two = ((Laurent.of_int(2),),)
    bad = modules.FinModule(H, (two, two, two), None, name="bad")
    with pytest.raises(RelationsFail):
        bad.star_twist()
    assert not bad.checked and calls[-1].name == "twist of bad"


def test_bad_module_matrices_rejected():
    from heckelab.modules import FinModule
    H = HeckeAlgebra(build_root_datum("A", 2))
    two = ((Laurent.of_int(2),),)
    one = ((Laurent.one(),),)
    bad = FinModule(H, (two, two, two), (one, one, one))
    with pytest.raises(RelationsFail):
        bad.check_relations()
    # length-zero matrices of another size than the node matrices are
    # refused when the module is made, not by a broadcast in the check
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 2]))
    eye = [np.eye(n, dtype=int).tolist() for n in (2, 3)]
    with pytest.raises(RelationsFail, match="are 3 x 3, node matrices 2 x 2"):
        FinModule(H, [eye[0]] * 3, [eye[1]] * len(H.omega))


def test_braid_failure_rejected_in_dimension_two():
    # diag(q, -1) and its conjugate by an upper unitriangular matrix both
    # satisfy the quadratic relation, but T_0 T_1 T_0 != T_1 T_0 T_1
    from heckelab.modules import FinModule
    H = HeckeAlgebra(build_root_datum("A", 2))
    q, one, zero = H.q(0), Laurent.one(), Laurent.zero()
    a = ((q, zero), (zero, -one))
    b = ((q, q + one), (zero, -one))
    bad = FinModule(H, (a, b, a), None)
    with pytest.raises(RelationsFail, match="braid relation of order 3"):
        bad.check_relations()


def test_odd_braid_failure_rejected_in_dimension_one():
    # T_0 -> q and T_1, T_2 -> -1 each satisfy the quadratic relation, but
    # 1 x 1 matrices meet the order-3 braid relation only when ab(a - b) = 0
    from heckelab.modules import FinModule
    H = HeckeAlgebra(build_root_datum("A", 2))
    q, minus = ((H.q(0),),), ((-Laurent.one(),),)
    bad = FinModule(H, (q, minus, minus), None)
    with pytest.raises(RelationsFail, match="braid relation of order 3"):
        bad.check_relations()


def test_reduce_mod_p_refuses_primes_beyond_int64():
    # 2^64 - 59 is prime, but a mod-p module keeps its tensors in int64
    d = build_root_datum("D", 4)
    with pytest.raises(ValueError, match="below 2"):
        reflection_module(d).reduce_mod_p(2**64 - 59)


def verdict(check, mod):
    """The message, relation, member and node values of the
    :class:`RelationsFail` that ``check(mod)`` raises, ``None`` if none."""
    try:
        check(mod)
    except RelationsFail as exc:
        return str(exc), exc.relation, exc.member, exc.values
    return None


@pytest.fixture
def oracle_checks(monkeypatch):
    """Make every ``FinModule.check_relations`` call also run the
    ``LaurentMatrix`` word product of the oracle on the same module and
    assert the same verdict; collects the verdicts."""
    from heckelab.modules import FinModule
    packed, seen = FinModule.check_relations, []

    def check(mod):
        got = verdict(packed, mod)
        assert got == verdict(laurent_check_relations, mod), mod
        seen.append(got)
        if got is not None:
            raise RelationsFail(*got[1:])

    monkeypatch.setattr(FinModule, "check_relations", check)
    return seen


def test_packed_check_matches_laurent_oracle_on_readme_characters(
        oracle_checks):
    """Every generic and mod-p character family of the README types and
    the acceptance table passes as it does on the oracle, and the same
    families with two free members appended (T_s -> q_s at node 0 only,
    and T_s -> 1 everywhere; T_s -> 1 mod 5) fail as they do there."""
    from heckelab import modules
    from test_acceptance import TABLE
    from test_extweyl import README_TYPES
    data = ([build_root_datum(kind, rank) for kind, rank in README_TYPES]
            + [build_root_datum(kind, rank, weights=w)
               for kind, rank, w, _, _ in TABLE])
    for d in data:
        H, n = HeckeAlgebra(d), d.rank + 1
        two = 2 * np.array(d.weights)
        signs = np.array([[ch.sign_on_node(s) for s in range(n)]
                          for ch in enumerate_characters(H, "generic")])
        coeffs = np.vstack([signs, [1] + [-1] * (n - 1), [1] * n])
        degrees = np.vstack([(signs == 1) * two, [two[0]] + [0] * (n - 1),
                             [0] * n])
        with pytest.raises(RelationsFail):
            modules._check_family(H, coeffs, degrees)
        values = np.array([ch.values
                           for ch in enumerate_characters(H, "modp")])
        values = np.vstack([values, [1] * n])
        with pytest.raises(RelationsFail):
            modules._check_family(H, values, 0 * values, prime=5)
    assert None in oracle_checks
    assert len({v[1] for v in oracle_checks if v}) > 1


def test_packed_check_matches_laurent_oracle_on_answer_modules(
        oracle_checks):
    """Every extended character and induced module of the acceptance
    table and the reflection modules of D4-D8 and E6-E8 with their star
    twists, unchecked, over the Laurent ring and mod 5, pass as on the
    oracle; a copy of each with v added to one entry of one generator
    fails there with the same relation."""
    from heckelab import NoIndexTwoStructure
    from heckelab.modules import FinModule
    from test_acceptance import TABLE
    data = [(kind, rank, w) for kind, rank, w, _, _ in TABLE]
    data += [("D", 6, 1), ("D", 7, 1), ("D", 8, 1)]
    for kind, rank, w in data:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        answers = []
        for ch in enumerate_characters(H, "generic"):
            extends, exts = character_extends(H, ch)
            answers += [ext.as_module(H) for ext in exts]
            if not extends:
                try:
                    answers.append(induce_character(H, ch))
                except NoIndexTwoStructure:
                    pass
        if kind in "DE":
            refl = reflection_module(H)
            answers += [refl, refl.star_twist()]
        for mod in answers:
            FinModule(H, mod.smats, mod.omega_mats).check_relations()
            FinModule(H, mod.smats, mod.omega_mats,
                      prime=5).check_relations()
            v = np.zeros((len(mod.smats), 1, mod.dim, mod.dim), np.int64)
            v[-1, 0, 0, -1] = 1
            bad = FinModule(H, mod.smats + LaurentMatrix(1, v),
                            mod.omega_mats)
            with pytest.raises(RelationsFail):
                bad.check_relations()
    assert None in oracle_checks
    assert len({v[1] for v in oracle_checks if v}) > 1


def _same_bank(mod):
    bank, oracle = mod._bank(), laurent_bank(mod)
    assert bank.lo == oracle.lo, mod
    assert bank.coeffs.dtype == oracle.coeffs.dtype, mod
    assert bank.coeffs.shape == oracle.coeffs.shape, mod
    assert (bank.coeffs == oracle.coeffs).all(), mod


def test_bank_matches_the_laurent_matrix_oracle():
    """The factor bank filled into one array equals the one built from
    ``LaurentMatrix`` sums and a ``concat``, in degree origin, shape,
    dtype and entries: on every answer of the README data and its
    reduction mod 5, on the reflection modules of D4-D8, on a family of
    characters, on a family of extended characters whose length-zero
    matrices broadcast over the family axes, and on either side of the
    int64 bound of $T_s \\pm 1$."""
    from heckelab.modules import FinModule
    from test_classify import _readme_outcomes
    mods = []
    for _, _, out in _readme_outcomes():
        if out.module is not None:
            mods += [out.module.generic, out.module]
    assert len(mods) == 48
    mods += [reflection_module(build_root_datum("D", r)) for r in range(4, 9)]
    H = HeckeAlgebra(build_root_datum("C", 3, weights=[1, 2, 2]))
    chars = enumerate_characters(H, "generic")
    # (node, member, degree, 1, 1): every character at once, then the
    # characters that extend with their trivial extension
    family = LaurentMatrix.from_rows([[[ch.node_value(s)]] for ch in chars
                                      for s in range(4)])
    stack = family.coeffs.reshape(len(chars), 4, -1, 1, 1).swapaxes(0, 1)
    mods.append(FinModule(H, LaurentMatrix(family.lo, stack), None))
    ext = [k for k, ch in enumerate(chars) if character_extends(H, ch)[0]]
    assert 1 < len(ext) < len(chars)
    ones = np.ones((len(H.omega), 1, 1, 1), dtype=np.int64)
    mods.append(FinModule(H, LaurentMatrix(family.lo, stack[:, ext, None]),
                          LaurentMatrix(0, ones)))
    top = np.full((4, 1, 1, 1), 2**63 - 2, dtype=np.int64)
    mods += [FinModule(H, LaurentMatrix(0, top), None),
             FinModule(H, LaurentMatrix(0, top + 1), None)]
    for mod in mods:
        _same_bank(mod)
    assert mods[-2]._bank().coeffs.dtype == np.int64
    assert mods[-1]._bank().coeffs.dtype == object
    assert mods[-3]._bank().coeffs.shape[1:3] == (len(ext), 1)
    mods[-3].check_relations()
    mods[-4].check_relations()


def upper_triangular_a1(x0, x1):
    """A 2 x 2 module datum of affine A1, weights 1: $T_s$ sends a row
    vector by ``((q, x_s), (0, -1))`` and the swap of the length-zero
    group by ``((1, 1), (0, -1))``.  Every such $T_s$ meets the quadratic
    relation, the swap squares to 1, and conjugation by it exchanges
    $T_0$ and $T_1$ exactly when $x_0 + x_1 = q + 1$."""
    H = HeckeAlgebra(build_root_datum("A", 1))
    q, one, zero = H.q(0), Laurent.one(), Laurent.zero()
    smats = [((q, x), (zero, -one)) for x in (x0, x1)]
    omats = [((one, zero), (zero, one)), ((one, one), (zero, -one))]
    return H, smats, omats


def test_packed_check_is_exact_where_the_l1_bound_is_met():
    """With $x_0 = -5$ the side $W T_0$ of the conjugation relation at
    node 0 has (0, 1) entry $x_0 - 1 = -6$, which meets its L1 bound
    $|x_0| + 1 = 6$, the largest bound of the module, so the slot width
    is 4 bits.  With $x_1 = v^2 + v - 2$ the other side $T_1 W$ has
    entry $q - x_1 = 2 - v$: the two differ but agree at $v = 2^3$, so
    a slot width one bit narrower would pass the module."""
    from heckelab.modules import FinModule
    x0 = Laurent.of_int(-5)
    assert Laurent({0: -6}).pack(3, 0) == Laurent({0: 2, 1: -1}).pack(3, 0)
    assert Laurent({0: -6}).pack(4, 0) != Laurent({0: 2, 1: -1}).pack(4, 0)
    H, smats, omats = upper_triangular_a1(x0, Laurent({2: 1, 0: 6}))
    FinModule(H, smats, omats).check_relations()
    H, smats, omats = upper_triangular_a1(x0, Laurent({2: 1, 1: 1, 0: -2}))
    for check in (laurent_check_relations, FinModule.check_relations):
        with pytest.raises(RelationsFail) as caught:
            check(FinModule(H, smats, omats))
        assert str(caught.value) == (
            "conjugation by length-zero element 1 fails at node 0")


def test_packed_check_on_python_ints(monkeypatch):
    """$T_s \\mapsto ((q, x), (0, -1))$ at every node of affine A2, with
    the length-zero group acting trivially, satisfies the relations for
    any $x$ (the braid relation asks $(q^2 + q + 1)(x_s - x_t) = 0$).
    Conjugated by diag(2^40, 1) its products leave int64 and the check
    runs on Python ints; the copy with 1 added to $x$ at node 1 fails."""
    from heckelab.modules import FinModule
    packed, dtypes = LaurentMatrix.packed_along, []

    def spy(self, words):
        out = packed(self, words)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(LaurentMatrix, "packed_along", spy)
    H = HeckeAlgebra(build_root_datum("A", 2))
    q, one, zero = H.q(0), Laurent.one(), Laurent.zero()
    x = Laurent({0: 2**40, 1: -(2**40)})
    ident = ((one, zero), (zero, one))
    smats = [((q, x), (zero, -one))] * 3
    FinModule(H, smats, [ident] * 3).check_relations()
    smats[1] = ((q, x + one), (zero, -one))
    bad = FinModule(H, smats, [ident] * 3)
    with pytest.raises(RelationsFail, match="braid relation of order 3 "
                                            "fails at nodes 0, 1"):
        bad.check_relations()
    assert dtypes == [object, object]
    with pytest.raises(RelationsFail, match="braid relation of order 3"):
        laurent_check_relations(bad)


def test_int64_minimum_entries_do_not_wrap(monkeypatch):
    """$-2^{63}$ is the one int64 whose ``np.abs`` is negative.  An A1
    module with int64 $T_0 = (-2^{63})$ and $T_1 = (2)$ acts by
    $T_0 T_1 = -2^{64}$, and the relation check of an upper triangular
    module ``((q, x), (0, d))`` with $x_0 = -2^{63}$ packs on Python ints
    and gives the oracle's verdict: it passes with $d = -1$ at both nodes
    and fails at the node where $d = 0$."""
    from heckelab.modules import FinModule
    low = -2**63
    H = HeckeAlgebra(build_root_datum("A", 1))
    mod = FinModule(H, LaurentMatrix(0, np.array([[[[low]]], [[[2]]]])),
                    None)
    assert mod.smats.coeffs.dtype == np.int64
    assert mod.act_word([0, 1]).coeffs.tolist() == [[[-2**64]]]
    assert mod.act_word([0, 0]).coeffs.tolist() == [[[2**126]]]
    packed, dtypes = LaurentMatrix.packed_along, []

    def spy(self, words):
        out = packed(self, words)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(LaurentMatrix, "packed_along", spy)
    for x1, d, node in [(0, (-1, -1), None), (low, (-1, -1), None),
                        (5, (-1, 0), 1), (0, (0, -1), 0)]:
        c = np.zeros((2, 3, 2, 2), dtype=np.int64)
        c[:, 2, 0, 0] = 1
        c[:, 0, 0, 1] = low, x1
        c[:, 0, 1, 1] = d
        mod = FinModule(H, LaurentMatrix(0, c), None)
        got = verdict(FinModule.check_relations, mod)
        assert got == verdict(laurent_check_relations, mod), (x1, d)
        assert got == (None if node is None else (
            f"quadratic relation fails at node {node}",) * 2 + (None, None))
    assert dtypes == [object] * 4


def test_relation_words_are_built_once_per_shape():
    """The relation words depend only on the Coxeter matrix and the
    length-zero node permutations, so algebras built afresh from one
    datum (as every CLI op builds one) share them."""
    from heckelab import modules
    modules._relations.cache_clear()
    for _ in range(3):
        H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 2]))
        trivial = enumerate_characters(H, "generic")[0]
        character_extends(H, trivial)[1][0].as_module(H)
    info = modules._relations.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
