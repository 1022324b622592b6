import dataclasses
import math

import numpy as np
import pytest

from fdjcas.geometry import (
    InfeasibleGeometryError,
    RisAngles,
    Scene,
    build_scene,
    clamp_arc_argument,
    pairwise_distances,
    ris_angles_of_point,
    ris_angles_of_target,
    ris_phase_derivatives,
    upa_phase_lengths,
)

from conftest import central_difference


def oracle_angles(scene):
    """Independent extraction from raw coordinates, via atan2 identities."""
    v = scene.target_position - scene.ris_positions[0]
    elevation = math.atan2(np.linalg.norm(np.cross(v, [1.0, 0.0, 0.0])), v[0])
    azimuth = math.atan2(v[2], abs(v[0]))
    return elevation, azimuth


class TestPairwiseDistances:
    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])

    def test_three_four_five(self):
        d = pairwise_distances([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]])
        assert d.shape == (1, 1)
        assert d[0, 0] == pytest.approx(5.0, abs=0.0)

    def test_reference_layout_matches_scalar_loop(self, reference_scene):
        tx = reference_scene.bs_tx_positions
        rx = reference_scene.bs_rx_positions
        got = pairwise_distances(tx, rx)
        for m in range(rx.shape[0]):
            for n in range(tx.shape[0]):
                expect = math.sqrt(sum((rx[m, k] - tx[n, k]) ** 2 for k in range(3)))
                assert abs(got[m, n] - expect) <= 1e-12 * expect

    def test_rigid_translation_invariance(self):
        rng = np.random.default_rng(0)
        tx = rng.standard_normal((4, 3))
        rx = rng.standard_normal((5, 3))
        shift = rng.standard_normal(3) * 10
        base = pairwise_distances(tx, rx)
        moved = pairwise_distances(tx + shift, rx + shift)
        assert np.allclose(base, moved, rtol=0, atol=1e-9)


class TestRisAngles:
    def test_target_straight_ahead_gives_zero_elevation(self):
        scene = build_scene(bs_ris_angle=0.0, target_angle=0.0, target_range=50.0)
        angles = ris_angles_of_target(scene)
        assert angles.elevation == pytest.approx(0.0, abs=1e-12)
        assert angles.azimuth == pytest.approx(0.0, abs=1e-12)

    def test_target_behind_gives_pi_elevation(self):
        scene = build_scene(bs_ris_angle=0.0, target_angle=0.0, target_range=2.0)
        angles = ris_angles_of_target(scene)
        assert angles.elevation == pytest.approx(np.pi, abs=1e-12)

    def test_reference_layout_matches_vector_oracle(self, reference_scene):
        angles = ris_angles_of_target(reference_scene)
        elevation, azimuth = oracle_angles(reference_scene)
        assert abs(angles.elevation - elevation) < 1e-6
        assert abs(angles.azimuth - azimuth) < 1e-6

    def test_random_scenes_match_vector_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            scene = build_scene(
                bs_ris_angle=rng.uniform(-1.2, 1.2),
                bs_ris_distance=rng.uniform(2.0, 8.0),
                target_range=rng.uniform(20.0, 80.0),
                target_angle=rng.uniform(-1.4, 1.4),
            )
            angles = ris_angles_of_target(scene)
            elevation, azimuth = oracle_angles(scene)
            assert abs(angles.elevation - elevation) < 1e-6
            assert abs(angles.azimuth - azimuth) < 1e-6

    def test_point_at_reference_rejected(self, reference_scene):
        with pytest.raises(InfeasibleGeometryError):
            ris_angles_of_point(reference_scene, reference_scene.ris_positions[0])

    def test_point_on_surface_normal_rejected(self, reference_scene):
        point = reference_scene.ris_positions[0] + np.array([0.0, 1.0, 0.0])
        with pytest.raises(InfeasibleGeometryError):
            ris_angles_of_point(reference_scene, point)


class TestClamp:
    def test_within_slack_clamps(self):
        assert clamp_arc_argument(1.0 + 5e-10) == 1.0
        assert clamp_arc_argument(-1.0 - 5e-10) == -1.0

    def test_beyond_slack_raises(self):
        with pytest.raises(InfeasibleGeometryError):
            clamp_arc_argument(1.0 + 1e-8)


class TestPhaseDerivatives:
    def test_reference_element_is_zero(self, reference_scene):
        assert ris_phase_derivatives(reference_scene)[0] == 0.0

    def test_matches_finite_difference(self, reference_scene):
        deriv = ris_phase_derivatives(reference_scene)

        def lengths(theta):
            s = reference_scene.with_target_angle(theta)
            return upa_phase_lengths(s, ris_angles_of_target(s))

        fd = central_difference(lengths, reference_scene.target_angle)
        rel = np.abs(deriv - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4

    def test_symmetric_scene_zero_at_broadside(self):
        # Single-row surface displaced off-plane: every path-length term is an
        # even, smooth function of the target angle, so the derivative at
        # zero vanishes.
        base = build_scene(ris_rows=1, ris_cols=6, target_angle=0.0)
        ris = base.ris_positions - base.ris_positions[0] + np.array([3.0, 4.0, 0.0])
        scene = Scene(
            bs_tx_positions=base.bs_tx_positions,
            bs_rx_positions=base.bs_rx_positions,
            ris_positions=ris,
            ris_rows=1,
            ris_cols=6,
            user_position=base.user_position,
            target_range=50.0,
            target_angle=0.0,
            bs_ris_angle=0.0,
            bs_ris_distance=5.0,
            wavelength=base.wavelength,
            spacing=base.spacing,
        )
        assert np.max(np.abs(ris_phase_derivatives(scene))) < 1e-12

    def test_random_scenes_match_finite_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scene = build_scene(
                ris_rows=int(rng.integers(2, 5)),
                ris_cols=int(rng.integers(2, 5)),
                bs_ris_angle=rng.uniform(-1.0, 1.0),
                target_range=rng.uniform(20.0, 80.0),
                target_angle=rng.uniform(-1.3, 1.3),
            )
            deriv = ris_phase_derivatives(scene)

            def lengths(theta, s=scene):
                moved = s.with_target_angle(theta)
                return upa_phase_lengths(moved, ris_angles_of_target(moved))

            fd = central_difference(lengths, scene.target_angle)
            rel = np.abs(deriv - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-4


class TestScene:
    def test_angle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_scene(target_angle=2.0)

    def test_nonuniform_spacing_rejected(self, reference_scene):
        tx = reference_scene.bs_tx_positions.copy()
        tx[3, 2] += 1e-3
        with pytest.raises(ValueError):
            dataclasses.replace(reference_scene, bs_tx_positions=tx)

    def test_noncoplanar_ris_rejected(self, reference_scene):
        ris = reference_scene.ris_positions.copy()
        ris[7, 1] += 0.01
        with pytest.raises(ValueError):
            dataclasses.replace(reference_scene, ris_positions=ris)

    def test_with_target_angle_moves_target_on_circle(self, reference_scene):
        moved = reference_scene.with_target_angle(0.5)
        assert np.linalg.norm(moved.target_position) == pytest.approx(
            reference_scene.target_range
        )

    def test_angles_finite_validation(self):
        with pytest.raises(InfeasibleGeometryError):
            RisAngles(np.nan, 0.0)
