import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoseq.crt import (ExpandedSetSpec, all_ones, crt0_set, crt_set,
                          expanded_set, product, select_expansion_base)
from protoseq.rscpc import RsCpcParams, rs_cpc
from protoseq.sequences import (BinarySequence, SequenceSet, crt_unmap,
                                cyclic_shift, hamming_xcorr, xcorr_profile)


def crt_member_oracle(p, q, g):
    """Slow oracle: generator g's ones, one crt_unmap call per residue pair."""
    return tuple(sorted(crt_unmap(((j * g) % p, j % q), p, q) for j in range(p)))


def crt_family_array_oracle(p, q, steps):
    """Array oracle for the residue-pair families: member (a, b)'s ones at
    crt_unmap((j*a mod p, j*b mod q)) for all j at once, sorted per row."""
    a, b = np.array(steps).T[:, :, None]
    j = np.arange(p)
    return [tuple(o) for o in
            np.sort(crt_unmap((j * a % p, j * b % q), p, q), axis=1).tolist()]


class TestCrtFamiliesAgainstOracle:
    @pytest.mark.parametrize("p", range(1, 14))
    def test_every_member(self, p):
        for q in [q for q in range(2 * p - 1, 2 * p + 9) if math.gcd(p, q) == 1][:3]:
            s = crt_set(p, q)
            assert [x.ones for x in s.sequences] == [
                crt_member_oracle(p, q, g) for g in range(p)]
            gens = [0, *range(2, p)]
            s0 = crt0_set(p, q)
            assert s0.labels == (*(f"g{g}" for g in gens), "*")
            star = tuple(sorted(crt_unmap((j % p, 0), p, q) for j in range(p)))
            assert [x.ones for x in s0.sequences] == [
                *(crt_member_oracle(p, q, g) for g in gens), star]
            assert {x.period for x in s.sequences + s0.sequences} == {p * q}

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 9, 11, 13, 17, 23])
    def test_every_member_against_the_array_oracle(self, p):
        for q in [q for q in range(2 * p - 1, 2 * p + 9) if math.gcd(p, q) == 1][:3]:
            assert [x.ones for x in crt_set(p, q).sequences] == crt_family_array_oracle(
                p, q, [(g, 1) for g in range(p)])
            assert [x.ones for x in crt0_set(p, q).sequences] == crt_family_array_oracle(
                p, q, [(g, 1) for g in [0, *range(2, p)]] + [(1, 0)])


class TestCrtSet:
    def test_small_instance_frozen(self):
        # hand-computed via residue pairs (j*g mod p, j mod q)
        s = crt_set(3, 5)
        assert s.period == 15 and len(s) == 3
        assert s.get("g1").ones == (0, 1, 2)
        assert s.get("g2").ones == (0, 7, 11)
        assert s.get("g0").ones == (0, 6, 12)

    def test_minimal_instance(self):
        s = crt_set(2, 3)
        assert s.get("g0").ones == (0, 4)

    def test_weight_and_meta(self):
        s = crt_set(5, 9)
        assert all(x.weight == 5 for x in s.sequences)
        assert s.meta["construction"] == "crt" and s.meta["p"] == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            crt_set(3, 4)   # q < 2p-1
        with pytest.raises(ValueError):
            crt_set(3, 6)   # not coprime

    def test_pairwise_xcorr_at_most_one_when_p_prime(self):
        for p, q in [(3, 5), (5, 9), (7, 13)]:
            s = crt_set(p, q)
            for i in range(len(s)):
                for j in range(i + 1, len(s)):
                    prof = xcorr_profile(s.sequences[i], s.sequences[j])
                    assert int(prof.max()) <= 1


class TestCrt0Set:
    def test_members_frozen(self):
        s = crt0_set(3, 5)
        assert s.labels == ("g0", "g2", "*")
        assert s.get("g0").ones == (0, 6, 12)
        assert s.get("g2").ones == (0, 7, 11)
        assert s.get("*").ones == (0, 5, 10)

    def test_five_nine_frozen(self):
        s = crt0_set(5, 9)
        assert s.get("g0").ones == (0, 10, 20, 30, 40)
        assert s.get("g2").ones == (0, 13, 21, 29, 37)
        assert s.get("g3").ones == (0, 11, 22, 28, 39)
        assert s.get("g4").ones == (0, 12, 19, 31, 38)
        assert s.get("*").ones == (0, 9, 18, 27, 36)

    def test_member_count(self):
        # generator 1 is dropped, the uniform member is added
        for p in (3, 5, 7):
            assert len(crt0_set(p, 2 * p - 1)) == p

    def test_composite_p_has_correlation_two(self):
        # generators with gcd(g - g', p) > 1 collide in more than one place
        s = crt0_set(4, 7)
        prof = xcorr_profile(s.get("g0"), s.get("g2"))
        assert int(prof.max()) == 2
        assert int(prof[0]) == 2  # positions {0, 16} coincide unshifted


class TestProduct:
    def test_period_and_weight(self):
        x = BinarySequence(3, (0, 1))
        y = BinarySequence(5, (0, 2, 3))
        z = product(x, y)
        assert z.period == 15
        assert z.weight == 6

    def test_membership_rule(self):
        x = BinarySequence(3, (0, 1))
        y = BinarySequence(5, (0, 2))
        z = product(x, y)
        for l in range(15):
            expected = (l % 3 in x.ones) and (l % 5 in y.ones)
            assert (l in z.ones) == expected

    def test_coprime_required(self):
        with pytest.raises(ValueError):
            product(BinarySequence(4, (0,)), BinarySequence(6, (0,)))

    @given(st.integers(0, 14))
    @settings(max_examples=15)
    def test_shift_homomorphism(self, t):
        x = BinarySequence(3, (0, 2))
        y = BinarySequence(5, (1, 4))
        lhs = cyclic_shift(product(x, y), t)
        rhs = product(cyclic_shift(x, t % 3), cyclic_shift(y, t % 5))
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(1, 60), st.integers(1, 60))
           .filter(lambda pq: math.gcd(*pq) == 1), st.data())
    def test_matches_crt_unmap_of_every_pair(self, periods, data):
        px, py = periods
        x, y = (BinarySequence(m, tuple(sorted(data.draw(st.sets(st.integers(0, m - 1))))))
                for m in periods)
        ones = sorted(crt_unmap((a, b), px, py) for a in x.ones for b in y.ones)
        assert product(x, y) == BinarySequence(px * py, tuple(ones))

    def test_all_ones(self):
        u = all_ones(6)
        assert u.ones == (0, 1, 2, 3, 4, 5)


PRIMES = [f for f in range(2, 998) if all(f % d for d in range(2, f))]


def expansion_base_oracle(p, M, k, field_cap):
    """Slow oracle for select_expansion_base: every (n, field) pair under
    the cap, minimised by (n * field, field, n)."""
    spread = p * (2 * p - 1)
    cands = [(n * f, f, n) for f in PRIMES if f <= field_cap
             for n in range(1, f + 1)
             if (f - 1) % n == 0 and n >= (k - 1) * (M - 1) + 1 and k < n <= f
             and math.gcd(spread, n * f) == 1]
    if not cands:
        return None
    _, f, n = min(cands)
    return n, f, k


class TestSelectExpansionBaseOracle:
    @pytest.mark.parametrize("field_cap", [997, 60, 13])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_brute_force(self, p, field_cap):
        for M in (2, 3, 5, 9):
            for k in (2, 3, 4):
                want = expansion_base_oracle(p, M, k, field_cap)
                if want is None:
                    with pytest.raises(ValueError):
                        select_expansion_base(p, M, k, field_cap)
                else:
                    assert select_expansion_base(p, M, k, field_cap) == want, (M, k)


class TestExpandedSet:
    @pytest.fixture(scope="class")
    @staticmethod
    def base():
        return rs_cpc(RsCpcParams(n=8, p=17, k=3))

    def test_selected_base(self):
        assert select_expansion_base(3, 3) == (8, 17, 3)

    def test_structure(self, base):
        es = expanded_set(ExpandedSetSpec(base_set=base, p=3, M=3))
        assert es.period == 15 * 136
        assert len(es) == 17
        guard = es.meta["guard_labels"]
        open_ = es.meta["open_labels"]
        assert len(guard) == 3 and len(open_) == 14
        for lab in guard:
            assert es.get(lab).weight == 24   # 3 * 8
        for lab in open_:
            assert es.get(lab).weight == 120  # 15 * 8
        assert es.meta["cf_floor"] == 12      # p(3p-1)/2
        assert es.meta["cf_gap_bound"] == 2 * 3 * 136

    def test_guard_pairing_follows_split_labels(self, base):
        es = expanded_set(ExpandedSetSpec(base_set=base, p=3, M=3,
                                          split_labels=["5", "6", "7"]))
        assert any(lab.endswith("*5") for lab in es.meta["guard_labels"])

    def test_validation(self, base):
        with pytest.raises(ValueError):
            expanded_set(ExpandedSetSpec(base_set=base, p=4, M=4))  # p not prime
        with pytest.raises(ValueError):
            expanded_set(ExpandedSetSpec(base_set=base, p=3, M=2))  # p > M
        with pytest.raises(ValueError):
            # n too small for the requested M: needs n >= (k-1)(M-1)+1 = 9
            expanded_set(ExpandedSetSpec(base_set=base, p=3, M=5))

    def test_base_audit_names_first_pair_over_bound(self):
        # k - 1 = 2; pairs (b, d) and (e, f) exceed it, (e, f) by more, and
        # the error names the lexicographically first of them
        ones = {"a": (0, 5), "b": (1, 2, 3), "c": (8,), "d": (4, 5, 6),
                "e": (0, 2, 4, 6), "f": (1, 3, 5, 7)}
        base = SequenceSet(tuple(BinarySequence(11, o) for o in ones.values()),
                           tuple(ones), {"n": 7, "k": 3})
        with pytest.raises(ValueError) as err:
            expanded_set(ExpandedSetSpec(base_set=base, p=3, M=3))
        assert str(err.value) == "base pair (b, d) has cross-correlation 3 > k-1 = 2"

    def test_base_audit_tie_across_rows_names_the_earlier_row(self):
        # (a, d) and (b, c) both reach 3 > k-1; (a, d) comes first in
        # row-major order, (b, c) first in column-major order
        ones = {"a": (0, 1, 2), "b": (0, 2, 4), "c": (0, 2, 4), "d": (0, 1, 2)}
        base = SequenceSet(tuple(BinarySequence(11, o) for o in ones.values()),
                           tuple(ones), {"n": 7, "k": 3})
        with pytest.raises(ValueError) as err:
            expanded_set(ExpandedSetSpec(base_set=base, p=3, M=3))
        assert str(err.value) == "base pair (a, d) has cross-correlation 3 > k-1 = 2"

    def test_guard_and_open_tiers_combine_base_and_split_supports(self, base):
        es = expanded_set(ExpandedSetSpec(base_set=base, p=3, M=3))
        open_lab = es.meta["open_labels"][0]
        src = open_lab.split("*")[1]
        member = es.get(open_lab)
        base_ones = set(base.get(src).ones)
        assert {x % 136 for x in member.ones} == base_ones
        assert {x % 15 for x in member.ones} == set(range(15))

    def test_every_member_is_the_product_of_its_factors(self):
        # period 11 is coprime to p(2p-1) = 15; weights 0..3 keep every
        # peak within k-1 = 3, and n = 7 >= (k-1)(M-1)+1
        ones = {"a": (1, 4, 9), "b": (), "c": (0, 2), "d": (5,),
                "e": (0, 3, 4), "f": (), "g": (2, 6, 7), "h": (8, 10)}
        base = SequenceSet(tuple(BinarySequence(11, o) for o in ones.values()),
                           tuple(ones), {"n": 7, "k": 4})
        split = ["c", "b", "e"]
        es = expanded_set(ExpandedSetSpec(base_set=base, p=3, M=3, split_labels=split))
        assert es.labels == ("g0*c", "g2*b", "**e", "U*a", "U*d", "U*f", "U*g", "U*h")
        factors = [*zip(crt0_set(3, 5).sequences, split),
                   *((all_ones(15), lab) for lab in "adfgh")]
        for member, (x, lab) in zip(es.sequences, factors):
            y = base.get(lab)
            assert member == product(x, y)
            oracle = sorted(crt_unmap((a, b), 15, 11) for a in x.ones for b in y.ones)
            assert member.ones == tuple(oracle)



def expand_small_base(period=11, meta=(("n", 7), ("k", 3)), split=()):
    """A call expanding four weight-1 members with p = M = 3."""
    base = SequenceSet(tuple(BinarySequence(period, (i,)) for i in range(4)), "abcd",
                       dict(meta))
    return lambda: expanded_set(ExpandedSetSpec(base, 3, 3, split))


class TestRejectedArguments:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: all_ones(0), "length must be >= 1", id="all_ones-length"),
        pytest.param(expand_small_base(period=15),
                     "gcd(p(2p-1), base period) must be 1, got gcd(15, 15)",
                     id="expanded-gcd"),
        pytest.param(expand_small_base(meta={"n": 7}),
                     "base set meta must record code parameters n and k",
                     id="expanded-meta"),
        pytest.param(expand_small_base(split=("a", "a", "b")),
                     "split_labels must name 3 distinct members", id="split-repeated"),
        pytest.param(expand_small_base(split=("a", "b")),
                     "split_labels must name 3 distinct members", id="split-count"),
        pytest.param(expand_small_base(split=("x", "a", "y")),
                     "split label(s) not in the base set: 'x', 'y'", id="split-unknown"),
    ])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError
        assert str(err.value) == message
