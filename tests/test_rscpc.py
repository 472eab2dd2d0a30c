import math
import os
import subprocess
import sys
from itertools import product as iproduct

import numpy as np
import pytest

import protoseq
from protoseq.rscpc import (ParamSearchError, RsCpcParams, element_of_order,
                            length_bounds, pad_set, pad_silent, rs_cpc,
                            select_params_prop1, select_params_prop2,
                            tdma_set)
from protoseq.sequences import (BinarySequence, SequenceSet, _is_prime, crt_unmap,
                                cyclic_order, cyclic_shift, min_separation,
                                xcorr_profile)


def rs_cpc_oracle(params):
    """Slow oracle for rs_cpc: one message, column and crt_unmap at a time."""
    n, p, k = params.n, params.p, params.k
    alpha = params.resolved_alpha()
    points = [pow(alpha, j, p) for j in range(n)]
    powers = [[pow(x, i, p) for i in range(k)] for x in points]
    seqs, labels = [], []
    for m in iproduct(range(p), repeat=k - 2):
        ones = []
        for j in range(n):
            row = powers[j][1]
            for i, mi in enumerate(m, start=2):
                row = (row + mi * powers[j][i]) % p
            ones.append(crt_unmap((row, j), p, n))
        seqs.append(BinarySequence(n * p, tuple(sorted(ones))))
        labels.append(",".join(map(str, m)))
    meta = {"construction": "rs_cpc", "n": n, "p": p, "k": k, "alpha": alpha}
    return SequenceSet(tuple(seqs), tuple(labels), meta)


def rs_cpc_array_oracle(params):
    """Array oracle for rs_cpc: every message's rows as one matrix product,
    then crt_unmap and a sort per row, as numpy broadcasts them."""
    n, p, k = params.n, params.p, params.k
    alpha = params.resolved_alpha()
    points = [pow(alpha, j, p) for j in range(n)]
    msgs = np.indices((p,) * (k - 2)).reshape(k - 2, -1).T
    powers = np.array([[pow(x, i, p) for x in points] for i in range(2, k)])
    rows = (msgs @ powers + points) % p
    ones = np.sort(crt_unmap((rows, np.arange(n)), p, n), axis=1)
    seqs = [BinarySequence(n * p, tuple(o)) for o in ones.tolist()]
    labels = [",".join(map(str, m)) for m in msgs.tolist()]
    meta = {"construction": "rs_cpc", "n": n, "p": p, "k": k, "alpha": alpha}
    return SequenceSet(tuple(seqs), tuple(labels), meta)


class TestElementOfOrder:
    def test_known_values(self):
        assert element_of_order(5, 11) == 3
        assert element_of_order(10, 11) == 2
        assert element_of_order(8, 17) == 2
        with pytest.raises(ValueError):
            element_of_order(7, 11)  # 7 does not divide 10

    def test_order_one_is_one(self):
        assert element_of_order(1, 5) == 1

    def test_composite_field_is_rejected(self):
        # in a child process with a timeout: a search that loops forever
        # on a composite p would hang this one
        src = os.path.dirname(os.path.dirname(protoseq.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "from protoseq.rscpc import element_of_order\n"
             "element_of_order(2, 9)"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
            timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "ValueError: field size must be prime, got 9")

    def test_matches_pow_oracle(self):
        # the least a in [1, p) whose least k with a^k = 1 mod p is n
        for p in filter(_is_prime, range(100)):
            order = {a: next(k for k in range(1, p) if pow(a, k, p) == 1)
                     for a in range(1, p)}
            for n in (n for n in range(1, p) if (p - 1) % n == 0):
                want = min(a for a in range(1, p) if order[a] == n)
                assert element_of_order(n, p) == want, (n, p)


class TestRsCpcParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RsCpcParams(n=5, p=10, k=3)    # p not prime
        with pytest.raises(ValueError):
            RsCpcParams(n=4, p=11, k=3)    # n does not divide p-1
        with pytest.raises(ValueError):
            RsCpcParams(n=5, p=11, k=5)    # k must stay below n
        with pytest.raises(ValueError):
            RsCpcParams(n=5, p=11, k=2)    # k >= 3
        with pytest.raises(ValueError):
            RsCpcParams(n=5, p=11, k=3, alpha=2)  # order(2) = 10, not 5

    @pytest.mark.parametrize("alpha", [0, 22, -11])
    def test_alpha_not_invertible(self, alpha):
        with pytest.raises(ValueError) as err:
            RsCpcParams(n=5, p=11, k=3, alpha=alpha)
        assert str(err.value) == f"alpha={alpha} is not invertible mod 11"

    def test_alpha_default(self):
        assert RsCpcParams(n=5, p=11, k=3).resolved_alpha() == 3

    @pytest.mark.parametrize("field, value", [("alpha", 2.5), ("n", 4.5), ("p", 5.5),
                                              ("k", 3.5), ("alpha", True)])
    def test_non_integer_field_is_refused(self, field, value):
        # a fractional alpha used to loop forever in _order; it must raise
        # before any field is used
        args = {"n": 4, "p": 5, "k": 3, "alpha": 2, field: value}
        with pytest.raises(ValueError) as err:
            RsCpcParams(**args)
        assert str(err.value) == f"RsCpcParams {field} must be an integer, got {value!r}"

    def test_whole_float_fields_read_as_integers(self):
        params = RsCpcParams(4.0, 5.0, 3.0, 2.0)
        assert params == RsCpcParams(4, 5, 3, 2)
        assert all(type(v) is int for v in (params.n, params.p, params.k, params.alpha))


class TestRsCpcConstruction:
    def test_small_family_shape(self):
        s = rs_cpc(RsCpcParams(n=5, p=11, k=3))
        assert len(s) == 11               # p^(k-2) codewords
        assert s.period == 55             # p * n
        assert all(x.weight == 5 for x in s.sequences)

    def test_identity_message_frozen(self):
        # codeword of the pure-x polynomial, evaluated at powers of 3 mod 11
        s = rs_cpc(RsCpcParams(n=5, p=11, k=3))
        assert s.get("0").ones == (4, 36, 38, 42, 45)

    def test_full_cyclic_order(self):
        s = rs_cpc(RsCpcParams(n=5, p=11, k=3))
        for x in s.sequences:
            assert cyclic_order(x) == 55

    def test_pairwise_xcorr_bound(self):
        s = rs_cpc(RsCpcParams(n=5, p=11, k=3))
        k = len(s)
        worst = 0
        for i in range(k):
            for j in range(i + 1, k):
                worst = max(worst, int(xcorr_profile(s.sequences[i],
                                                     s.sequences[j]).max()))
        assert worst <= 2                 # k - 1

    @pytest.mark.parametrize("params", [
        RsCpcParams(n=5, p=11, k=3), RsCpcParams(n=4, p=5, k=3, alpha=3),
        RsCpcParams(n=6, p=7, k=4), RsCpcParams(n=6, p=7, k=5),
        RsCpcParams(n=16, p=17, k=4)], ids=str)
    def test_matches_scalar_oracle(self, params):
        assert rs_cpc(params).to_json() == rs_cpc_oracle(params).to_json()

    # k = 3, 4 and 5; n a proper divisor of p - 1 and n = p - 1; alpha
    # defaulted and given
    @pytest.mark.parametrize("params", [
        RsCpcParams(n=5, p=11, k=3), RsCpcParams(n=5, p=11, k=3, alpha=4),
        RsCpcParams(n=10, p=11, k=3), RsCpcParams(n=10, p=11, k=3, alpha=7),
        RsCpcParams(n=6, p=13, k=4), RsCpcParams(n=6, p=13, k=4, alpha=10),
        RsCpcParams(n=12, p=13, k=4), RsCpcParams(n=12, p=13, k=4, alpha=6),
        RsCpcParams(n=16, p=17, k=4),
        RsCpcParams(n=6, p=13, k=5), RsCpcParams(n=6, p=13, k=5, alpha=10),
        RsCpcParams(n=6, p=7, k=5), RsCpcParams(n=6, p=7, k=5, alpha=5)], ids=str)
    def test_matches_array_oracle(self, params):
        assert rs_cpc(params).to_json() == rs_cpc_array_oracle(params).to_json()

    def test_cyclically_distinct(self):
        s = rs_cpc(RsCpcParams(n=5, p=11, k=3))
        seen = set()
        for x in s.sequences:
            canon = min(tuple(cyclic_shift(x, t).ones) for t in range(x.period))
            assert canon not in seen
            seen.add(canon)


class TestPadding:
    def test_pad_silent_positions(self):
        from protoseq.sequences import BinarySequence
        x = BinarySequence(4, (0, 2))
        y = pad_silent(x, 3)
        assert y.period == 16
        assert y.ones == (0, 8)

    def test_pad_zero_is_identity(self):
        from protoseq.sequences import BinarySequence
        x = BinarySequence(4, (0, 2))
        assert pad_silent(x, 0) == x

    def test_pad_set_meta(self):
        from protoseq.crt import crt0_set
        s = pad_set(crt0_set(3, 5), 2)
        assert s.period == 45
        assert s.meta["pad"] == 2
        assert s.meta["padded_from"] == "crt0"
        # separations scale with the pad factor
        assert min_separation(s.get("*")) == 15


class TestTdma:
    def test_shape(self):
        s = tdma_set(4, 1)
        assert len(s) == 4 and s.period == 8
        assert s.get("t0").ones == (0,)
        assert s.get("t3").ones == (6,)

    def test_distinct_slots(self):
        s = tdma_set(7, 2)
        slots = [x.ones[0] for x in s.sequences]
        assert len(set(slots)) == 7


class TestParamSearch:
    def test_prop1_small(self):
        sel = select_params_prop1(3, 7, 0)
        assert (sel.n, sel.p, sel.k, sel.period) == (6, 7, 3, 42)

    def test_prop1_padded(self):
        sel = select_params_prop1(5, 37, 2)
        assert (sel.n, sel.p, sel.k, sel.period) == (10, 11, 3, 330)

    def test_prop2_small(self):
        sel = select_params_prop2(3, 7)
        assert (sel.n, sel.p, sel.k, sel.period) == (6, 7, 3, 84)

    def test_prop2_allows_larger_k(self):
        # k=3 would force p >= 37 (L = 666); k=4 admits (n,p) = (16,17)
        # with n | 16, n >= 13, p^2 = 289 >= 37, giving L = 2*16*17 = 544
        sel = select_params_prop2(5, 37)
        assert (sel.n, sel.p, sel.k, sel.period) == (16, 17, 4, 544)

    def test_population_scaling(self):
        # larger populations force more message symbols, not longer frames,
        # until p^k runs out
        a = select_params_prop1(3, 7, 0)
        b = select_params_prop1(3, 300, 0)
        assert b.period == a.period and b.k >= a.k

    def test_infeasible(self):
        with pytest.raises(ParamSearchError):
            select_params_prop1(3, 7, 0, p_cap=5)

    def test_search_respects_constraints(self):
        for sel in [select_params_prop1(4, 50, 1), select_params_prop2(4, 50)]:
            assert sel.n >= (sel.k - 1) * (sel.M - 1) + 1
            assert (sel.p - 1) % sel.n == 0
            assert 3 <= sel.k < sel.n <= sel.p


def _triples(cap):
    """Every (n * p, p, n, k) with p prime <= cap, n | p - 1 and 3 <= k < n,
    in ascending order, as four arrays."""
    return np.array(sorted((n * p, p, n, k) for p in range(2, cap + 1)
                           if all(p % d for d in range(2, math.isqrt(p) + 1))
                           for n in range(1, p) if (p - 1) % n == 0
                           for k in range(3, n))).T.copy()


NP, P, N, K = _triples(997)
PRIMES = np.unique(P).tolist()


def search_oracle(M, G, offset, frame_factor, p_cap=997, n_cap=997):
    """Slow oracle for the frame-length searches: the first admissible
    triple under the caps in (period, p, n, k) order, scanning all of them."""
    # p ** (k - offset) >= G exactly, through each prime's least such exponent
    least = np.zeros(P.max() + 1, dtype=np.int64)
    for q in PRIMES:
        least[q] = next(e for e in range(G + 1) if q ** e >= G)
    ok = ((P >= M) & (P <= p_cap) & (N <= n_cap)
          & (N >= (K - 1) * (M - 1) + 1) & (K - offset >= least[P]))
    if not ok.any():
        return None
    first = int(np.argmax(ok))
    return frame_factor * int(NP[first]), int(P[first]), int(N[first]), int(K[first])


class TestParamSearchOracle:
    """The searches stop at the first p whose smallest period cannot win;
    the oracle scans every prime up to the cap."""

    @pytest.mark.parametrize("caps", [(997, 997), (23, 997), (997, 8), (5, 997)])
    @pytest.mark.parametrize("M", [2, 3, 5, 8, 13])
    def test_matches_brute_force(self, M, caps):
        p_cap, n_cap = caps
        for G in (1, 7, 49, 5000):
            for scheme, delta, offset, factor in (
                    [("prop1", d, 0, d + 1) for d in (0, 1, 3)]
                    + [("prop2", 0, 2, 2)]):
                want = search_oracle(M, G, offset, factor, p_cap, n_cap)
                if scheme == "prop1":
                    run = lambda: select_params_prop1(M, G, delta, p_cap, n_cap)
                else:
                    run = lambda: select_params_prop2(M, G, p_cap, n_cap)
                if want is None:
                    with pytest.raises(ParamSearchError):
                        run()
                    continue
                sel = run()
                assert (sel.period, sel.p, sel.n, sel.k) == want, (scheme, M, G, delta)
                assert (sel.scheme, sel.M, sel.G, sel.delta) == (scheme, M, G, delta)


class TestLengthBounds:
    def test_values(self):
        assert length_bounds(3) == (3, 8)
        assert length_bounds(10) == (10, 89)
        assert length_bounds(5) == (5, 23)

    def test_monotone(self):
        prev = 0
        for m in range(1, 30):
            lo = length_bounds(m)[1]
            assert lo >= prev
            prev = lo


class TestRejectedArguments:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: pad_silent(BinarySequence(4, (0,)), -1),
                     "delta must be >= 0", id="pad_silent-delta"),
        pytest.param(lambda: tdma_set(0, 0), "G must be >= 1", id="tdma-G"),
        pytest.param(lambda: tdma_set(2, -1), "delta must be >= 0", id="tdma-delta"),
        pytest.param(lambda: select_params_prop1(1, 5, 0),
                     "need M >= 2, G >= 1, delta >= 0; got M=1 G=5 delta=0",
                     id="prop1-M"),
        pytest.param(lambda: select_params_prop1(3, 0, 0),
                     "need M >= 2, G >= 1, delta >= 0; got M=3 G=0 delta=0",
                     id="prop1-G"),
        pytest.param(lambda: select_params_prop1(3, 5, -1),
                     "need M >= 2, G >= 1, delta >= 0; got M=3 G=5 delta=-1",
                     id="prop1-delta"),
        pytest.param(lambda: select_params_prop2(1, 5),
                     "need M >= 2, G >= 1, delta >= 0; got M=1 G=5 delta=0",
                     id="prop2-M"),
        pytest.param(lambda: length_bounds(0), "M must be >= 1", id="length_bounds-M"),
        pytest.param(lambda: element_of_order(0, 5), "order 0 must divide p-1 = 4",
                     id="order-zero"),
        pytest.param(lambda: element_of_order(-2, 5), "order -2 must divide p-1 = 4",
                     id="order-negative"),
    ])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError
        assert str(err.value) == message
