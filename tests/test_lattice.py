"""Bravais geometry, flux bookkeeping and cosine-potential tests."""

import math

import numpy as np
import pytest

from cavity_bloch.constants import ANGSTROM, E_CHARGE, EV, H_PLANCK
from cavity_bloch.errors import DomainError
from cavity_bloch.lattice import (
    Lattice2D,
    bravais_cosine_potential,
    bravais_lattice,
    direct_vectors,
    field_for_flux_ratio,
    flux_ratio,
    mtg_flux_condition,
    reciprocal_vectors,
)


def square(a=2e-10):
    return Lattice2D(a, a, math.pi / 2)


class TestReciprocal:
    def test_square_closed_form(self):
        # pi per angstrom on each axis for the a = 2 angstrom square cell
        rec = reciprocal_vectors(square(2 * ANGSTROM))
        assert np.allclose(rec.b1, [math.pi * 1e10, 0.0], rtol=1e-12, atol=1e-4)
        assert np.allclose(rec.b2, [0.0, math.pi * 1e10], rtol=1e-12, atol=1e-4)

    def test_oblique_duality(self):
        lat = Lattice2D(3 * ANGSTROM, 2 * ANGSTROM, math.pi / 3)
        a1, a2 = direct_vectors(lat)
        rec = reciprocal_vectors(lat)
        for b, pair in ((rec.b1, (1, 0)), (rec.b2, (0, 1))):
            assert b @ a1 == pytest.approx(2 * math.pi * pair[0], abs=1e-4)
            assert b @ a2 == pytest.approx(2 * math.pi * pair[1], abs=1e-4)

    def test_hexagonal_equal_lengths(self):
        rec = reciprocal_vectors(Lattice2D(2 * ANGSTROM, 2 * ANGSTROM, math.pi / 3))
        assert np.linalg.norm(rec.b1) == pytest.approx(np.linalg.norm(rec.b2), rel=1e-12)

    def test_duality_property_random(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            lat = Lattice2D(
                float(rng.uniform(1.0, 9.0)) * ANGSTROM,
                float(rng.uniform(1.0, 9.0)) * ANGSTROM,
                float(rng.uniform(0.2, math.pi - 0.2)),
            )
            a1, a2 = direct_vectors(lat)
            rec = reciprocal_vectors(lat)
            gram = np.array([[rec.b1 @ a1, rec.b1 @ a2], [rec.b2 @ a1, rec.b2 @ a2]])
            assert np.max(np.abs(gram - 2 * math.pi * np.eye(2))) < 1e-10 * 2 * math.pi

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            Lattice2D(1e-10, 1e-10, 1e-14)
        with pytest.raises(DomainError):
            Lattice2D(-1e-10, 1e-10, 1.0)

    def test_underflowing_cell_area_is_named(self):
        # a1 a2 sin(theta) underflows to 0 for a square cell of side 1e-310 m
        with pytest.raises(DomainError, match=r"^degenerate lattice: sin\(theta\) ~ 0$"):
            Lattice2D(1e-10, 1e-10, 1e-14)
        with pytest.raises(DomainError) as exc:
            Lattice2D(1e-310, 1e-310, math.pi / 2)
        assert str(exc.value) == ("degenerate lattice: the cell area a1 a2 sin(theta) "
                                  "underflows float64 (a1 = 1e-310 m, a2 = 1e-310 m)")


class TestFlux:
    def test_zero_field(self):
        assert flux_ratio(square(), 0.0) == 0.0

    def test_unit_flux_field_codata(self):
        # B(Phi = Phi0) = (h/e)/a^2 for the 2 angstrom square cell
        a = 2 * ANGSTROM
        expect = (H_PLANCK / E_CHARGE) / a**2
        assert expect == pytest.approx(1.0339e5, rel=1e-3)
        assert field_for_flux_ratio(square(a), 1.0) == pytest.approx(expect, rel=1e-12)
        assert flux_ratio(square(a), expect) == pytest.approx(1.0, rel=1e-12)

    def test_linearity_in_field(self):
        lat = square()
        assert flux_ratio(lat, 2.0) == pytest.approx(2 * flux_ratio(lat, 1.0), rel=1e-14)

    def test_enlargement_scaling(self):
        lat = Lattice2D(3 * ANGSTROM, 2 * ANGSTROM, 1.1)
        b = 37.0
        for p in (2, 3, 5, 8):
            assert flux_ratio(lat.enlarged(p), b) == pytest.approx(
                p * flux_ratio(lat, b), rel=1e-14
            )


class TestMtg:
    def test_square_integer_flux(self):
        lat = square()
        b = field_for_flux_ratio(lat, 1.0)
        verdict, residual = mtg_flux_condition(lat, b, 1)
        assert verdict == "abelian-group"
        assert residual < 1e-9

    def test_square_third_flux_enlarged(self):
        lat = square()
        b = field_for_flux_ratio(lat, 1.0 / 3.0)
        assert mtg_flux_condition(lat, b, 3)[0] == "abelian-group"
        assert mtg_flux_condition(lat, b, 2)[0] == "not-group"

    def test_square_half_flux_enlarged(self):
        lat = square()
        b = field_for_flux_ratio(lat, 0.5)
        assert mtg_flux_condition(lat, b, 2)[0] == "abelian-group"

    def test_irrational_flux_never_group(self):
        lat = square()
        b = field_for_flux_ratio(lat, 1.0 / math.sqrt(2.0))
        for p in (1, 2, 3, 10, 999, 10**6):
            verdict, residual = mtg_flux_condition(lat, b, p)
            assert verdict == "not-group"
            assert residual > 1e-9

    def test_geometry_condition(self):
        # a2 cos(theta) = a1 exactly: oblique lattice admitting closure
        a1 = 2 * ANGSTROM
        theta = math.pi / 3
        lat = Lattice2D(a1, a1 / math.cos(theta), theta)
        b = field_for_flux_ratio(lat, 2.0)
        assert mtg_flux_condition(lat, b, 1)[0] == "abelian-group"
        skew = Lattice2D(a1, 1.37 * a1, theta)
        b = field_for_flux_ratio(skew, 2.0)
        assert mtg_flux_condition(skew, b, 1)[0] == "not-group"


class TestCosinePotential:
    def test_square_four_coefficients(self):
        pot = bravais_cosine_potential("square", 3.0 * EV, square())
        assert len(pot.coefficients) == 4
        for v in pot.coefficients.values():
            assert v == pytest.approx(1.5 * EV)

    def test_linearity_in_strength(self):
        lat = square()
        one = bravais_cosine_potential("square", 1.0 * EV, lat)
        three = bravais_cosine_potential("square", 3.0 * EV, lat)
        for key, v in one.coefficients.items():
            assert three.coefficients[key] == pytest.approx(3.0 * v)

    def test_hexagonal_six_coefficients_reality(self):
        lat = Lattice2D(2 * ANGSTROM, 2 * ANGSTROM, math.pi / 3)
        pot = bravais_cosine_potential("hexagonal", 3.0 * EV, lat)
        assert len(pot.coefficients) == 6
        for (n, m), v in pot.coefficients.items():
            assert pot.coefficients[(-n, -m)] == pytest.approx(np.conj(v))

    def test_real_space_value(self):
        # V0 [cos(b1.r) + cos(b2.r)] at the origin is 2 V0
        lat = square()
        pot = bravais_cosine_potential("square", 3.0 * EV, lat)
        assert pot.real_space(0.0, 0.0) == pytest.approx(6.0 * EV, rel=1e-12)

    def test_kind_compatibility(self):
        with pytest.raises(DomainError):
            bravais_cosine_potential("square", EV, Lattice2D(2e-10, 3e-10, math.pi / 2))
        with pytest.raises(DomainError):
            bravais_cosine_potential("hexagonal", EV, square())
        with pytest.raises(DomainError):
            bravais_cosine_potential("rectangular", EV, square())
        with pytest.raises(DomainError):
            bravais_cosine_potential("nonsense", EV, square())

    @staticmethod
    def rotation(degrees):
        c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        return np.array([[c, -s], [s, c]])

    @staticmethod
    def mirror(degrees):
        """Reflection across the line through the origin at `degrees` from x."""
        c, s = math.cos(math.radians(2 * degrees)), math.sin(math.radians(2 * degrees))
        return np.array([[c, s], [s, -c]])

    @pytest.mark.parametrize("kind, a2, theta_deg, group", [
        ("hexagonal", 2.0, 60.0, [("C6", 60.0), ("x -> -x", 90.0), ("y -> -y", 0.0)]),
        ("square", 2.0, 90.0, [("C4", 90.0)]),
        ("rectangular", 3.0, 90.0, [("x -> -x", 90.0), ("y -> -y", 0.0)]),
        ("centered-rectangular", 2.0, 75.0, [("a1/a2 bisector", 37.5)]),
        ("oblique", 3.0, 70.0, [("C2", 180.0)]),
    ])
    def test_potential_invariant_under_point_group(self, kind, a2, theta_deg, group):
        # real_space is the oracle: V(R r) = V(r) at random points for every
        # generator R of the class's point group
        lat = Lattice2D(2 * ANGSTROM, a2 * ANGSTROM, math.radians(theta_deg))
        pot = bravais_cosine_potential(kind, 3.0 * EV, lat)
        r = np.random.default_rng(22).uniform(-5.0, 5.0, size=(2, 200)) * ANGSTROM
        before = pot.real_space(r[0], r[1])
        for name, degrees in group:
            op = self.rotation(degrees) if name.startswith("C") else self.mirror(degrees)
            after = pot.real_space(*(op @ r))
            assert np.max(np.abs(after - before)) < 1e-12 * 3.0 * EV, name

    def test_reality_enforced(self):
        from cavity_bloch.lattice import FourierPotential

        with pytest.raises(DomainError):
            FourierPotential(coefficients={(1, 0): 1.0 + 0j}, lattice=square())


class TestBravaisLattice:
    @pytest.mark.parametrize("kind, a2, theta", [
        ("square", 2.0, math.pi / 2), ("rectangular", 3.0, math.pi / 2),
        ("hexagonal", 2.0, math.pi / 3), ("centered-rectangular", 2.0, math.radians(75.0)),
    ])
    def test_class_angle_by_default(self, kind, a2, theta):
        lat = bravais_lattice(kind, 2.0 * ANGSTROM, a2 * ANGSTROM)
        assert lat == Lattice2D(2.0 * ANGSTROM, a2 * ANGSTROM, theta)

    def test_oblique_has_no_class_angle(self):
        with pytest.raises(DomainError, match="oblique lattice requires"):
            bravais_lattice("oblique", 2e-10, 3e-10)
        assert bravais_lattice("oblique", 2e-10, 3e-10, math.radians(80.0)).theta == (
            math.radians(80.0))

    @pytest.mark.parametrize("kind, degrees", [
        ("hexagonal", 75.0), ("square", 75.0), ("centered-rectangular", 90.0),
        ("centered-rectangular", 60.0), ("rectangular", 80.0),
    ])
    def test_explicit_angle_must_agree_with_class(self, kind, degrees):
        a2 = 3e-10 if kind == "rectangular" else 2e-10
        with pytest.raises(DomainError, match=f"{kind} lattice requires"):
            bravais_lattice(kind, 2e-10, a2, math.radians(degrees))

    def test_explicit_angle_kept(self):
        lat = bravais_lattice("centered-rectangular", 2e-10, 2e-10, math.radians(80.0))
        assert lat.theta == math.radians(80.0)

    def test_lengths_must_agree_with_class(self):
        with pytest.raises(DomainError, match="hexagonal lattice requires"):
            bravais_lattice("hexagonal", 2e-10, 3e-10)
        with pytest.raises(DomainError, match="unknown lattice kind"):
            bravais_lattice("nonsense", 2e-10, 2e-10)
