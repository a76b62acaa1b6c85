import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import quadstab

from quadstab.geometry import DivisorClass, Geometry, GeometryConfig, SurfaceDivisor
from quadstab.lattice import (
    SOD1_DIVISORS,
    IntegerLattice,
    KTheory,
    LatticeError,
    hnf_with_transform,
    integer_kernel,
    integer_solution,
    quotient,
    rational_determinant,
    rational_inverse,
    smith_normal_form,
    solve_rational,
)

from oracles import project

D = DivisorClass
S = SurfaceDivisor
Q = Fraction

# the default twist and four others with mixed signs
TWISTS = [(-1, -1), (0, 0), (1, -2), (2, 3), (-3, 1)]


def laplace(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * laplace([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestLinearAlgebra:
    def test_inverse(self):
        m = [[Q(2), Q(1)], [Q(1), Q(1)]]
        inv = rational_inverse(m)
        assert inv == [[Q(1), Q(-1)], [Q(-1), Q(2)]]

    def test_determinant(self):
        assert rational_determinant([[Q(2), Q(0)], [Q(0), Q(3)]]) == 6
        assert rational_determinant([[Q(1), Q(2)], [Q(2), Q(4)]]) == 0

    def test_determinant_matches_laplace(self):
        rng = random.Random(20261018)
        cases = [[], [[Q(0), Q(1)], [Q(0), Q(5, 3)]], [[Q(1, 2), Q(1, 3)], [Q(3, 2), Q(1)]]]
        for _ in range(400):
            n = rng.randint(0, 5)
            m = [[Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.25:  # a row dependent on two others
                m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
            if n and rng.random() < 0.25:  # a zero column
                c = rng.randrange(n)
                for row in m:
                    row[c] = Q(0)
            cases.append(m)
        for m in cases:
            det = rational_determinant(m)
            assert isinstance(det, Fraction) and det == laplace(m), m
        assert rational_determinant([]) == 1

    def test_solve(self):
        rows = [[Q(1), Q(0), Q(1)], [Q(0), Q(1), Q(1)]]
        assert solve_rational(rows, [Q(2), Q(3), Q(5)]) == [Q(2), Q(3)]
        assert solve_rational(rows, [Q(2), Q(3), Q(4)]) is None

    def test_hnf(self):
        # canonical form: positive pivots, above-pivot entries reduced
        h, _ = hnf_with_transform([[2, 4], [1, 3]])
        assert h == [[1, 1], [0, 2]]

    def test_integer_kernel(self):
        ker = integer_kernel([[1, 1], [2, 2], [3, 3]])
        lat = IntegerLattice(3, ker)
        assert lat.rank == 2
        assert lat.member([2, -1, 0])
        assert lat.member([3, 0, -1])
        assert not lat.member([1, 0, 0])

    def test_snf_invariants(self):
        # oracle: d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 4,
        # d1*d2*d3 = |det| = 624
        inv, u, v = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert inv == [2, 2, 156]

    def test_snf_transforms_multiply_out(self):
        m = [[6, 4], [2, 8]]
        inv, u, v = smith_normal_form(m)
        # U * M * V is the diagonal of invariants
        um = [
            [sum(u[i][t] * m[t][j] for t in range(2)) for j in range(2)]
            for i in range(2)
        ]
        umv = [
            [sum(um[i][t] * v[t][j] for t in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert umv == [[inv[0], 0], [0, inv[1]]]


class TestSmithNormalForm:
    SHAPES = [(m, n) for m in range(1, 6) for n in range(1, 9)]

    @staticmethod
    def matrices(m, n, rng):
        """Full-rank, rank-deficient and zero-row matrices with entries up to 1000."""
        for bound in (1, 9, 1000):
            yield [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        for _ in range(2):
            rows = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
            if m > 1:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (m - 1)])]
            rows[rng.randrange(m)] = [0] * n
            yield rows
        yield [[0] * n for _ in range(m)]

    @staticmethod
    def determinantal_divisors(rows):
        """D_k = gcd of the k x k minors, for k = 1 .. min(m, n)."""
        m, n = len(rows), len(rows[0])
        return [
            math.gcd(*(
                laplace([[rows[i][j] for j in cols] for i in rs])
                for rs in combinations(range(m), k)
                for cols in combinations(range(n), k)
            ))
            for k in range(1, min(m, n) + 1)
        ]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_properties(self, shape):
        m, n = shape
        rng = random.Random(1000 * m + n)
        for rows in self.matrices(m, n, rng):
            inv, u, v = smith_normal_form(rows)
            assert all(d > 0 for d in inv)
            assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
            diag = [[inv[i] if i == j and i < len(inv) else 0 for j in range(n)] for i in range(m)]
            assert matmul(matmul(u, rows), v) == diag, rows
            assert abs(rational_determinant(u)) == abs(rational_determinant(v)) == 1
            if m <= 3 and n <= 3:
                products = [math.prod(inv[:k]) if k <= len(inv) else 0 for k in range(1, min(m, n) + 1)]
                assert products == self.determinantal_divisors(rows), rows

    def test_empty_shapes(self):
        assert smith_normal_form([]) == ([], [], [])
        assert smith_normal_form([[], []]) == ([], [[1, 0], [0, 1]], [])

    def test_coefficient_blowup_regression(self):
        # naive smallest-pivot elimination grows 140-digit entries on this
        # matrix by its third pivot (Kannan-Bachem); it must stay fast
        code = (
            "from quadstab.lattice import smith_normal_form; "
            "print(smith_normal_form([[-9, -19, -40, -35, -33], [28, -37, 11, -17, -10], "
            "[-20, -33, -27, -39, 38], [30, -15, -22, 12, -15]])[0])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(quadstab.__file__).parents[1])),
            timeout=30,
        )
        assert proc.stdout == "[1, 1, 1, 6]\n", proc.stderr


class TestIntegerLattice:
    def test_membership(self):
        lat = IntegerLattice(3, [[1, 0, 0]])
        assert lat.member([2, 0, 0])
        assert not lat.member([0, 1, 0])

    def test_equality_by_normal_form(self):
        a = IntegerLattice(2, [[1, 1], [0, 2]])
        b = IntegerLattice(2, [[1, 3], [1, 1]])
        assert a == b

    def test_intersection(self):
        a = IntegerLattice(2, [[2, 0], [0, 1]])
        b = IntegerLattice(2, [[1, 1]])
        meet = a.intersection(b)
        assert meet == IntegerLattice(2, [[2, 2]])

    def test_dimension_mismatch(self):
        with pytest.raises(LatticeError):
            IntegerLattice(2, [[1, 2, 3]])

    def test_equality_and_membership(self):
        a = IntegerLattice(2, [[1, 0], [0, 2]])
        b = IntegerLattice(2, [[1, 2], [0, 2]])
        assert a == b
        assert a.member([3, 4])
        assert not a.member([0, 1])


class TestQuotient:
    def test_rank_one_torsion_free(self):
        src = IntegerLattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        ker = IntegerLattice(3, [[0, 1, 0], [-1, 0, 1]])
        q = quotient(src, ker)
        assert q.rank == 1 and q.torsion == ()

    def test_full_quotient(self):
        src = IntegerLattice(2, [[1, 0], [0, 1]])
        q = quotient(src, src)
        assert q.rank == 0

    def test_torsion(self):
        src = IntegerLattice(2, [[1, 0], [0, 1]])
        ker = IntegerLattice(2, [[2, 0]])
        q = quotient(src, ker)
        assert q.rank == 1 and q.torsion == (2,)

    def test_containment_enforced(self):
        src = IntegerLattice(2, [[2, 0], [0, 2]])
        ker = IntegerLattice(2, [[1, 0]])
        with pytest.raises(LatticeError):
            quotient(src, ker)

    def test_projection_kills_kernel(self):
        src = IntegerLattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        ker = IntegerLattice(3, [[0, 1, 0], [-1, 0, 1]])
        q = quotient(src, ker)
        for row in ker.hnf:
            assert all(v == 0 for v in project(q, list(row)))


class TestKClasses:
    def test_unit_class(self, kt):
        assert kt.chern(kt.unit()).c0 == 1
        assert kt.coordinates(kt.unit()) == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_pushforward_class_is_torsion(self, kt):
        assert kt.pushforward_class(S(0, 0)).rank() == 0

    def test_pushforward_self_pairing(self, kt):
        p = kt.pushforward_class(S(-1, 0))
        assert kt.euler_pairing(p, p) == 1

    def test_step1_orthogonality(self, kt):
        p = kt.pushforward_class(S(-1, 0))
        for i in range(3):
            assert kt.euler_pairing(kt.line_class(D(i, 0, 0)), p) == 0

    def test_pairing_from_serre_transport(self, kt):
        # euler of a Hom concentrated in degree 2 is +1
        p = kt.pushforward_class(S(-1, 0))
        assert kt.euler_pairing(p, kt.line_class(D(0, 0, -1))) == 1

    def test_unit_self_pairing(self, kt):
        assert kt.euler_pairing(kt.unit(), kt.unit()) == 1

    def test_serre_class(self, kt):
        s = kt.serre_class(kt.unit())
        assert s == kt.line_class(D(-2, -1, -1)).scale(-1)

    def test_serre_duality_pairing(self, kt):
        basis = kt.sod1_classes()
        for x in basis:
            for y in basis:
                assert kt.euler_pairing(x, y) == kt.euler_pairing(y, kt.serre_class(x))

    def test_serre_square_preserves_rank(self, kt):
        x = kt.line_class(D(1, 1, 0))
        assert kt.serre_class(kt.serre_class(x)).rank() == x.rank()

    def test_non_integral_class_rejected(self):
        for twist in TWISTS:
            kt = KTheory(Geometry(GeometryConfig(*twist)))
            for bad in (Fraction(1, 2), 0.5, 1.0, "1"):
                with pytest.raises(LatticeError):
                    kt.from_coordinates([bad, 0, 0, 0, 0, 0, 0, 0])
            with pytest.raises(LatticeError):
                kt.from_coordinates([1, 0, 0])
            assert kt.from_coordinates([Fraction(3), 0, 0, 0, 0, 0, 0, 0]) == kt.unit().scale(3)

    def test_coordinate_round_trip(self, kt):
        import random

        rng = random.Random(11)
        for _ in range(50):
            coeffs = tuple(rng.randint(-5, 5) for _ in range(8))
            cls = kt.from_coordinates(coeffs)
            assert kt.coordinates(cls) == coeffs
        # pushforward atoms also have integral coordinates
        from quadstab.geometry import SurfaceDivisor as SD

        for d in range(-2, 3):
            for e in range(-2, 3):
                cls = kt.pushforward_class(SD(d, e))
                assert kt.from_coordinates(kt.coordinates(cls)) == cls


class TestClassMutations:
    def test_step2_left_mutation(self, kt):
        e = kt.line_class(D(2, 0, 0))
        x = kt.pushforward_class(S(0, 0))
        assert kt.mutate_class_left(e, x) == kt.line_class(D(1, 1, 1)).scale(-1)

    def test_step3_left_mutation(self, kt):
        e = kt.unit()
        x = kt.line_class(D(0, 1, 0))
        assert kt.mutate_class_left(e, x) == kt.line_class(D(0, -1, 0)).scale(-1)

    def test_orthogonality_after_mutation(self, kt):
        e = kt.line_class(D(1, 0, 0))
        x = kt.pushforward_class(S(-1, -1))
        assert kt.euler_pairing(e, kt.mutate_class_left(e, x)) == 0
        assert kt.euler_pairing(kt.mutate_class_right(x, e), e) == 0

    def test_inverse_on_orthogonal_domain(self, kt):
        e = kt.line_class(D(0, 1, 1))
        x = kt.line_class(D(1, 0, -1)) + kt.unit().scale(2)
        x_dom = x - e.scale(kt.euler_pairing(x, e))
        assert kt.mutate_class_right(kt.mutate_class_left(e, x_dom), e) == x_dom

    def test_right_mutation_example(self, ctx, kt):
        g_cls = ctx.calc.class_of(ctx.names["G"])
        p = kt.pushforward_class(S(-1, 0))
        assert kt.mutate_class_right(g_cls, p) == kt.line_class(D(0, 0, -1))

    def test_rejects_non_exceptional(self, kt):
        from quadstab.lattice import LatticeError

        bad = kt.unit().scale(2)
        with pytest.raises(LatticeError):
            kt.mutate_class_left(bad, kt.unit())


class TestGramAndBases:
    def test_sod1_gram_unipotent(self, kt):
        gram = kt.gram_matrix(kt.sod1_classes())
        for i in range(8):
            assert gram[i][i] == 1
            for j in range(i):
                assert gram[i][j] == 0

    def test_sod1_determinant(self, kt):
        assert abs(kt.basis_determinant()) == 1

    def test_sod2_integral_basis(self, ctx, kt):
        calc = ctx.calc
        rows = [kt.coordinates(calc.class_of(x)) for x in ctx.sod2_objects()]
        det = rational_determinant([[Q(v) for v in row] for row in rows])
        assert abs(det) == 1

    def test_triple_gram(self, ctx, kt):
        calc = ctx.calc
        classes = [calc.class_of(x) for x in ctx.triple_objects()]
        gram = kt.gram_matrix(classes)
        assert [row[:] for row in gram] == [[1, -1, -2], [0, 1, 1], [0, 0, 1]]


class TestOtherTwists:
    @pytest.mark.parametrize("twist", [(0, 0), (-2, 0), (1, 2)])
    def test_basis_stays_unimodular(self, twist):
        from quadstab.geometry import Geometry, GeometryConfig
        from quadstab.lattice import KTheory

        kt = KTheory(Geometry(GeometryConfig(*twist)))
        assert abs(kt.basis_determinant()) == 1
        gram = kt.gram_matrix(kt.sod1_classes())
        assert all(gram[i][i] == 1 for i in range(8))
        assert all(gram[j][i] == 0 for j in range(8) for i in range(j))

    @pytest.mark.parametrize("twist", [(0, 0), (-2, 0)])
    def test_serre_pairing_identity(self, twist):
        from quadstab.geometry import Geometry, GeometryConfig
        from quadstab.lattice import KTheory

        kt = KTheory(Geometry(GeometryConfig(*twist)))
        basis = kt.sod1_classes()
        for x in basis:
            for y in basis:
                assert kt.euler_pairing(x, y) == kt.euler_pairing(y, kt.serre_class(x))


class TestPairingCovector:
    """euler_pairing is the covector x^T G, kept per x, dotted with y; it
    must equal the unfactored double sum whatever the memo holds."""

    @staticmethod
    def classes(rng):
        """The zero class, the 8 basis vectors and seeded vectors with
        negative coordinates."""
        out = [(0,) * 8]
        out += [tuple(int(i == j) for j in range(8)) for i in range(8)]
        out += [tuple(rng.randint(-6, 6) for _ in range(8)) for _ in range(40)]
        return out

    @pytest.mark.parametrize("twist", [(-1, -1), (0, 0), (2, 3)])
    def test_equals_the_double_sum(self, twist):
        g = Geometry(GeometryConfig(*twist))
        G = [[g.euler_characteristic(Dj - Di) for Dj in SOD1_DIVISORS] for Di in SOD1_DIVISORS]
        kt = KTheory(g)
        coords = self.classes(random.Random(str(twist)))
        for x in coords:
            for y in coords:
                expected = sum(x[i] * G[i][j] * y[j] for i in range(8) for j in range(8))
                assert kt.euler_pairing(kt.from_coordinates(x), kt.from_coordinates(y)) == expected

    @pytest.mark.parametrize("twist", [(-1, -1), (0, 0), (2, 3)])
    def test_independent_of_memo_state(self, twist):
        coords = self.classes(random.Random(31))
        warm = KTheory(Geometry(GeometryConfig(*twist)))
        classes = [warm.from_coordinates(c) for c in coords]
        pairs = [(x, y) for x in classes for y in classes]
        warmed = {(x, y): warm.euler_pairing(x, y) for x, y in reversed(pairs)}
        fresh = KTheory(Geometry(GeometryConfig(*twist)))
        assert [fresh.euler_pairing(x, y) for x, y in pairs] == [warmed[p] for p in pairs]
        assert len(warm._covectors) == len(set(classes))


class TestGramMatrix:
    """gram_matrix is the table of euler_pairing over the classes, one
    covector per row, and euler_pairings its value on each of a list of
    pairs; neither keeps a covector."""

    @pytest.mark.parametrize("twist", [(-1, -1), (0, 0), (2, 3)])
    def test_equals_the_pairing_table(self, twist):
        kt = KTheory(Geometry(GeometryConfig(*twist)))
        classes = [kt.from_coordinates(c) for c in TestPairingCovector.classes(random.Random(str(twist)))]
        kept = len(kt._covectors)
        gram = kt.gram_matrix(classes)
        assert len(kt._covectors) == kept
        assert gram == [[kt.euler_pairing(x, y) for y in classes] for x in classes]
        kept = len(kt._covectors)
        assert kt.gram_matrix(classes[::-1]) == [row[::-1] for row in gram[::-1]]
        assert len(kt._covectors) == kept

    @pytest.mark.parametrize("twist", [(-1, -1), (0, 0), (2, 3)])
    def test_pairings_of_pairs_equal_the_pairing(self, twist):
        kt = KTheory(Geometry(GeometryConfig(*twist)))
        classes = [kt.from_coordinates(c) for c in TestPairingCovector.classes(random.Random(str(twist)))]
        pairs = random.Random(7).sample([(x, y) for x in classes for y in classes], 60)
        values = kt.euler_pairings(iter(pairs))
        assert kt._covectors == {}
        assert values == [kt.euler_pairing(x, y) for x, y in pairs]


class TestKernelLattice:
    def test_rank_two(self, ctx, kt):
        assert ctx.kernel_lattice().rank == 2

    def test_relation(self, ctx, kt):
        calc = ctx.calc
        lhs = calc.class_of(ctx.names["Ecal"])
        rhs = calc.class_of(ctx.names["F"]) + kt.line_class(D(0, -1, 0))
        assert lhs == rhs

    def test_quotient_is_rank_one_free(self, ctx):
        q = quotient(ctx.dprime_lattice(), ctx.kernel_lattice())
        assert q.rank == 1 and q.torsion == ()

    def test_difference_vector_membership(self, ctx, kt):
        # [O(-h)] - [O(-k)] in the rank-3 coordinates, with [G] standing in
        # for [O(-k)] (equal pushforward classes): e1 - e2 lies in the kernel
        calc = ctx.calc
        triple = [calc.class_of(x) for x in ctx.triple_objects()]
        rows = [[Q(v) for v in kt.coordinates(c)] for c in triple]
        coords = []
        for cls in ctx.kernel_classes():
            sol = solve_rational(rows, [Q(v) for v in kt.coordinates(cls)])
            coords.append([int(c) for c in sol])
        kernel3 = IntegerLattice(3, coords)
        assert kernel3.member([1, -1, 0])

    def test_kernel_inside_pushforward_killed_lattice(self, ctx, kt):
        p_row = kt.coordinates(kt.pushforward_class(S(-1, 0)))
        q_row = kt.coordinates(kt.pushforward_class(S(0, -1)))
        diff = kt.coordinates(
            kt.line_class(D(0, -1, 0)) - kt.line_class(D(0, 0, -1))
        )
        killed = IntegerLattice(8, [p_row, q_row, diff])
        meet = ctx.dprime_lattice().intersection(killed)
        assert meet == ctx.kernel_lattice()


class TestEulerAgainstRhom:
    def test_atom_pairs(self, ctx, kt):
        calc = ctx.calc
        from quadstab.expressions import LineAtom, PushAtom

        atoms = [LineAtom(D(i, j, k)) for i in (-1, 0, 1) for j in (-1, 1) for k in (0, 1)]
        atoms += [PushAtom(S(d, e)) for d in (-1, 0) for e in (-1, 0)]
        for x in atoms:
            for y in atoms:
                r = calc.rhom(x, y)
                assert r.euler == kt.euler_pairing(calc.class_of(x), calc.class_of(y))
                if r.status == "determined":
                    assert r.dims.euler() == r.euler


class TestAgainstChernCharacterOracle:
    """The integer K-ring and Gram against the rational Chern-character path."""

    @pytest.mark.parametrize("twist", TWISTS)
    def test_line_class_matches_rational_coordinates(self, twist):
        g = Geometry(GeometryConfig(*twist))
        kt = KTheory(g)
        # ch(O(D)) = sum_i c_i ch(O(D_i)), solved with the inverse of the
        # transposed basis matrix
        basis = [g.chern_character(Di) for Di in SOD1_DIVISORS]
        inverse = rational_inverse([list(col) for col in zip(*basis)])
        for n in range(-3, 4):
            for p in range(-3, 4):
                for q in range(-3, 4):
                    ch = g.chern_character(D(n, p, q))
                    coords = tuple(sum(r * v for r, v in zip(row, ch)) for row in inverse)
                    assert kt.coordinates(kt.line_class(D(n, p, q))) == coords

    @pytest.mark.parametrize("twist", TWISTS + [(-2, 0)])
    def test_basis_determinant_matches_the_rational_rows(self, twist):
        g = Geometry(GeometryConfig(*twist))
        rows = [list(g.chern_character(Di)) for Di in SOD1_DIVISORS]
        assert KTheory(g).basis_determinant() == rational_determinant(rows) == -1

    @pytest.mark.parametrize("twist", TWISTS)
    def test_gram_matches_hrr(self, twist):
        g = Geometry(GeometryConfig(*twist))
        kt = KTheory(g)
        gram = kt.gram_matrix(kt.sod1_classes())
        for i, Di in enumerate(SOD1_DIVISORS):
            for j, Dj in enumerate(SOD1_DIVISORS):
                expected = g.hrr_euler(g.chern_character(Di), g.chern_character(Dj))
                assert gram[i][j] == expected

    @pytest.mark.parametrize("twist", TWISTS)
    def test_serre_class_matches_chow_product(self, twist):
        import random

        g = Geometry(GeometryConfig(*twist))
        kt = KTheory(g)
        ch_omega = g.chern_character(g.canonical_class())
        rng = random.Random(2024)
        for _ in range(20):
            x = kt.from_coordinates([rng.randint(-4, 4) for _ in range(8)])
            assert kt.chern(kt.serre_class(x)) == -g.chow_mul(kt.chern(x), ch_omega)

    @pytest.mark.parametrize("twist", [(-1, -1), (0, 0), (-2, 0), (1, -2)])
    def test_tensor_line_matches_chow_product(self, twist):
        # ch(x (x) O(D)) = ch(x) ch(O(D)), and twisting by -D undoes D
        g = Geometry(GeometryConfig(*twist))
        kt = KTheory(g)
        rng = random.Random(7)
        for _ in range(200):
            x = kt.from_coordinates([rng.randint(-3, 3) for _ in range(8)])
            Dx = D(*(rng.randint(-2, 2) for _ in range(3)))
            product = kt.tensor_line(x, Dx)
            assert kt.chern(product) == g.chow_mul(kt.chern(x), g.chern_character(Dx))
            assert kt.tensor_line(product, -Dx) == x


class TestIntegerSolution:
    """integer_solution against the rational oracle solve_rational plus an
    integrality check, on seeded random systems."""

    @staticmethod
    def combine(coeffs, rows):
        return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]

    def check(self, rows, target) -> str:
        """Compare with the oracle; return the kind of system seen."""
        sol = integer_solution(rows, target)
        oracle = solve_rational([[Q(v) for v in r] for r in rows], [Q(v) for v in target])
        if sol is not None:
            assert self.combine(sol, rows) == list(target)
        if oracle is None:
            assert sol is None
            return "unsolvable"
        if len(hnf_with_transform(rows)[0]) < len(rows):
            # dependent rows: solutions are not unique, so only the checks above apply
            return "dependent"
        # independent rows: the rational solution is the only one
        if all(c.denominator == 1 for c in oracle):
            assert sol == [int(c) for c in oracle]
            return "integral"
        assert sol is None
        return "rational only"

    def test_seeded_against_rational_oracle(self):
        import random

        rng = random.Random(8128)
        kinds: dict[str, int] = {}

        def record(kind):
            kinds[kind] = kinds.get(kind, 0) + 1

        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            y = [rng.randint(-3, 3) for _ in range(m)]
            record(self.check(rows, self.combine(y, rows)))
            record(self.check(rows, [rng.randint(-6, 6) for _ in range(n)]))
            # doubling a row makes an odd coefficient on it rational only
            doubled = [[2 * v for v in rows[0]]] + rows[1:]
            y[0] = 2 * y[0] + 1
            record(self.check(doubled, self.combine(y, rows)))
            dependent = rows + [self.combine([rng.randint(-2, 2) for _ in range(m)], rows)]
            record(self.check(dependent, self.combine(y + [rng.randint(-2, 2)], dependent)))
        assert set(kinds) == {"unsolvable", "dependent", "integral", "rational only"}
        assert min(kinds.values()) >= 20, kinds

    def test_dependent_rows_with_only_rational_solutions(self):
        rows = [[2, 0], [0, 2], [2, 2]]
        assert solve_rational([[Q(v) for v in r] for r in rows], [Q(1), Q(0)]) is not None
        assert integer_solution(rows, [1, 0]) is None
        assert self.combine(integer_solution(rows, [4, 2]), rows) == [4, 2]

    def test_edge_cases(self):
        assert integer_solution([], [0, 0]) == []
        assert integer_solution([], [1, 0]) is None
        with pytest.raises(LatticeError):
            integer_solution([[1, 2]], [1, 2, 3])
