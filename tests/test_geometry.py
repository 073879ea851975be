import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack.errors import DataError, NonPositiveDepthError, ZeroVectorError
from geotrack.geometry import (
    REFERENCE,
    WORLD,
    CameraIntrinsics,
    EgoPose,
    PixelObservation,
    Pose5D,
    angular_error,
    camera_to_world,
    ego_yaw,
    normalize_rotation,
    project,
    quat_from_matrix,
    quat_to_matrix,
    recover_translation,
    reference_transform,
)
from helpers import (
    reference_project,
    reference_recover_translation,
    to_reference_frame,
    world_to_camera,
)

K = CameraIntrinsics(f_x=1000.0, f_y=1000.0, p_x=800.0, p_y=450.0,
                     width=1600, height=900)

finite = st.floats(-100.0, 100.0, allow_nan=False)


def random_ego(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return EgoPose(q, rng.normal(0, 20, 3))


def random_pose(rng, frame=WORLD):
    r = rng.normal(size=2)
    while np.linalg.norm(r) < 1e-6:
        r = rng.normal(size=2)
    return Pose5D(rng.normal(0, 30, 3), r / np.linalg.norm(r), frame)


class TestNormalizeRotation:
    def test_already_unit(self):
        np.testing.assert_allclose(normalize_rotation((0.6, 0.8)), [0.6, 0.8])

    def test_hand_scaled(self):
        # |(3, 4)| = 5
        np.testing.assert_allclose(normalize_rotation((3.0, 4.0)), [0.6, 0.8])

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            normalize_rotation((0.0, 0.0))

    @pytest.mark.parametrize("r", [(1e300, 1e300), (-1e308, 1e308), (np.nan, 0.0)])
    def test_non_finite_norm_is_bad_data(self, r):
        """An overflowing norm used to scale the direction to (0, 0) and
        print a RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="facing direction norm (inf|nan) is not finite"):
                normalize_rotation(r)

    @given(st.tuples(finite, finite))
    def test_output_unit(self, r):
        vec = np.array(r)
        if np.linalg.norm(vec) <= 1e-6:
            return
        out = normalize_rotation(vec)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def k_rows(*cameras):
    """(f_x, f_y, p_x, p_y) rows of ``cameras``, as ``recover_translation``
    takes them."""
    return np.array([[c.f_x, c.f_y, c.p_x, c.p_y] for c in cameras])


class TestProjection:
    def test_center_at_principal_point(self):
        np.testing.assert_allclose(recover_translation(np.array([[800.0, 450.0, 10.0]]),
                                                       k_rows(K)), [[0.0, 0.0, 10.0]])

    def test_hand_offset(self):
        # (900 - 800) * 20 / 1000 = 2
        np.testing.assert_allclose(recover_translation(np.array([[900.0, 450.0, 20.0]]),
                                                       k_rows(K)), [[2.0, 0.0, 20.0]])

    def test_zero_depth_rejected(self):
        """Rows are not checked: an observation refuses a depth that is not
        positive, and the one-point reference projection refuses a point
        that is not ahead."""
        with pytest.raises(NonPositiveDepthError):
            PixelObservation(c=(800.0, 450.0), T_z=0.0, R=(0.0, 1.0))
        with pytest.raises(NonPositiveDepthError):
            reference_project(np.array([0.0, 0.0, 0.0]), K)

    def test_project_examples(self):
        np.testing.assert_allclose(project(np.array([[0.0, 0.0, 10.0], [2.0, 0.0, 20.0]]), K),
                                   [[800, 450], [900, 450]])

    def test_round_trip_1000_random(self, rng):
        t = np.column_stack([rng.uniform(-50, 50, 1000), rng.uniform(-50, 50, 1000),
                             rng.uniform(1, 100, 1000)])
        ctz = np.column_stack([project(t, K), t[:, 2]])
        back = recover_translation(ctz, k_rows(K).repeat(1000, axis=0))
        assert (np.abs(back - t).max(axis=1) / np.maximum(1.0, np.abs(t).max(axis=1))
                < 1e-9).all()


magnitude = st.floats(1e-3, 1e30)
signed = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
camera = st.builds(lambda f_x, f_y, p_x, p_y: CameraIntrinsics(
    f_x=f_x, f_y=f_y, p_x=p_x, p_y=p_y, width=math.ceil(p_x), height=math.ceil(p_y)),
    magnitude, magnitude, magnitude, magnitude)
point_rows = st.lists(st.tuples(signed, signed, magnitude), min_size=1, max_size=8)


class TestRowPinholeOracle:
    """``project`` and ``recover_translation`` on rows, bit for bit against
    the one-point references they replaced, at magnitudes 1e-3 to 1e30."""

    @given(point_rows, camera)
    def test_project_rows(self, rows, camera):
        T = np.array(rows)
        expected = np.array([reference_project(t, camera) for t in T])
        assert project(T, camera).tobytes() == expected.tobytes()

    @given(st.lists(st.tuples(signed, signed, magnitude, camera), min_size=1, max_size=8))
    def test_recover_translation_rows_each_with_its_camera(self, rows):
        ctz = np.array([row[:3] for row in rows])
        expected = np.array([reference_recover_translation(
            PixelObservation(c=row[:2], T_z=row[2], R=(0.0, 1.0)), row[3]) for row in rows])
        assert recover_translation(ctz, k_rows(*(row[3] for row in rows))).tobytes() \
            == expected.tobytes()

    @given(point_rows, camera)
    def test_round_trip(self, rows, camera):
        """Pixel centre -> translation -> pixel centre, to a few rounding
        steps of the centre and the principal point."""
        ctz = np.array(rows)
        back = project(recover_translation(ctz, k_rows(camera).repeat(len(ctz), axis=0)),
                       camera)
        scale = np.abs(ctz[:, :2]) + [camera.p_x, camera.p_y]
        assert (np.abs(back - ctz[:, :2]) <= 1e-14 * scale).all()


class TestFrameTransforms:
    def test_identity_ego_is_identity(self):
        pose = Pose5D((1.0, 2.0, 3.0), (0.6, 0.8), WORLD)
        out = world_to_camera(pose, EgoPose.identity())
        np.testing.assert_allclose(out.T, pose.T)
        np.testing.assert_allclose(out.R, pose.R)

    def test_inverse_pair(self, rng):
        for _ in range(1000):
            ego = random_ego(rng)
            pose = random_pose(rng)
            back = camera_to_world(world_to_camera(pose, ego), ego)
            np.testing.assert_allclose(back.T, pose.T, atol=1e-9)
            np.testing.assert_allclose(back.R, pose.R, atol=1e-9)
            cam = random_pose(rng, "camera")
            back2 = world_to_camera(camera_to_world(cam, ego), ego)
            np.testing.assert_allclose(back2.T, cam.T, atol=1e-9)
            np.testing.assert_allclose(back2.R, cam.R, atol=1e-9)

    def test_pure_yaw_rotates_x_into_z(self):
        # 90 degree yaw about the (downward) y axis maps world x to -z and
        # world z to +x under world_to_camera; camera_to_world inverts it.
        ego = EgoPose.from_yaw(np.pi / 2)
        pose = Pose5D((1.0, 0.0, 0.0), (1.0, 0.0), WORLD)
        cam = world_to_camera(pose, ego)
        np.testing.assert_allclose(cam.T, [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(cam.R, [0.0, 1.0], atol=1e-12)
        back = camera_to_world(cam, ego)
        np.testing.assert_allclose(back.T, pose.T, atol=1e-12)
        np.testing.assert_allclose(back.R, pose.R, atol=1e-12)

    def test_to_reference_identity_when_same_ego(self, rng):
        ego = random_ego(rng)
        pose = random_pose(rng, "camera")
        out = to_reference_frame(pose, ego, ego)
        assert out.frame_id == REFERENCE
        np.testing.assert_allclose(out.T, pose.T, atol=1e-9)
        np.testing.assert_allclose(out.R, pose.R, atol=1e-9)

    def test_composition_matches_via_world(self, rng):
        for _ in range(100):
            ego_t, ego_ref = random_ego(rng), random_ego(rng)
            pose = random_pose(rng, "camera")
            direct = to_reference_frame(pose, ego_t, ego_ref)
            via = world_to_camera(camera_to_world(pose, ego_t), ego_ref)
            np.testing.assert_allclose(direct.T, via.T, atol=1e-9)
            np.testing.assert_allclose(direct.R, via.R, atol=1e-9)

    def test_reference_transform_matches_op(self, rng):
        for _ in range(100):
            ego_t, ego_ref = random_ego(rng), random_ego(rng)
            pose = random_pose(rng, "camera")
            B, d, C = reference_transform(ego_t, ego_ref)
            out = to_reference_frame(pose, ego_t, ego_ref)
            np.testing.assert_allclose(B @ pose.T + d, out.T, atol=1e-9)
            r = C @ pose.R
            np.testing.assert_allclose(r / np.linalg.norm(r), out.R, atol=1e-9)


class TestAngularError:
    def test_equal_is_zero(self):
        assert angular_error((1.0, 0.0), (1.0, 0.0)) == 0.0

    def test_orthogonal(self):
        assert angular_error((1.0, 0.0), (0.0, 1.0)) == pytest.approx(90.0)

    def test_antipodal(self):
        assert angular_error((1.0, 0.0), (-1.0, 0.0)) == pytest.approx(180.0)

    def test_stack_equals_row_at_a_time(self, rng):
        a = rng.uniform(0, 2 * np.pi, 6)
        b = rng.uniform(0, 2 * np.pi, 4)
        ra = np.stack([np.cos(a), np.sin(a)], axis=-1)
        rb = np.stack([np.cos(b), np.sin(b)], axis=-1)
        angles = angular_error(ra[:, None, :], rb[None, :, :])
        assert angles.shape == (6, 4)
        rows = np.array([[angular_error(x, y) for y in rb] for x in ra])
        assert angles.tobytes() == rows.tobytes()
        assert isinstance(angular_error(ra[0], rb[0]), np.floating)

    @given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi),
           st.floats(0, 2 * np.pi))
    @settings(max_examples=200)
    def test_symmetry_and_triangle(self, a, b, c):
        ra = np.array([np.cos(a), np.sin(a)])
        rb = np.array([np.cos(b), np.sin(b)])
        rc = np.array([np.cos(c), np.sin(c)])
        assert angular_error(ra, rb) == pytest.approx(angular_error(rb, ra))
        assert angular_error(ra, rc) <= (
            angular_error(ra, rb) + angular_error(rb, rc) + 1e-9
        )


class TestQuaternions:
    def test_matrix_round_trip(self, rng):
        for _ in range(200):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            q2 = quat_from_matrix(quat_to_matrix(q))
            # q and -q encode the same rotation
            assert min(np.abs(q2 - q).max(), np.abs(q2 + q).max()) < 1e-9

    def test_from_matrix_rejects_shear(self):
        mat = np.eye(4)
        mat[0, 1] = 0.01
        with pytest.raises(DataError, match="ego rotation block is not orthonormal"):
            EgoPose.from_matrix(mat)

    @pytest.mark.parametrize("entry, value", [((0, 0), 1e308), ((0, 1), 1e200),
                                              ((2, 2), -1e308)])
    def test_from_matrix_rejects_huge_entries_without_warnings(self, entry, value):
        mat = np.eye(4)
        mat[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="ego rotation block is not orthonormal"):
                EgoPose.from_matrix(mat)

    def test_ego_yaw_of_yaw_pose(self):
        for yaw in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert ego_yaw(EgoPose.from_yaw(yaw)) == pytest.approx(
                np.arctan2(np.sin(yaw), np.cos(yaw))
            )

    def test_quaternion_tolerance(self):
        q = np.array([1.01, 0.0, 0.0, 0.0])  # norm within 1e-3? no: 1%
        with pytest.raises(DataError, match="quaternion norm 1.010000 too far from 1"):
            EgoPose(q, np.zeros(3))
        q = np.array([1.0005, 0.0, 0.0, 0.0])  # within the 1e-3 tolerance
        ego = EgoPose(q, np.zeros(3))
        assert np.linalg.norm(ego.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_norm_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="quaternion norm inf too far from 1"):
                EgoPose(np.array([1e300, 1e300, 0.0, 0.0]), np.zeros(3))


class TestPose5D:
    def test_requires_unit_facing(self):
        with pytest.raises(DataError, match="facing direction norm 1.414.* != 1"):
            Pose5D((0.0, 0.0, 0.0), (1.0, 1.0), WORLD)

    def test_overflowing_facing_norm_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="facing direction norm inf != 1"):
                Pose5D((0.0, 0.0, 0.0), (1e300, -1e300), WORLD)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_value_objects_reject_non_finite(self, bad):
        """A NaN facing passes a norm check (NaN > tol is false), so finiteness
        is checked on its own, for every vector of every value object."""
        for build in (
            lambda: Pose5D((bad, 0.0, 0.0), (1.0, 0.0), WORLD),
            lambda: Pose5D((0.0, 0.0, 0.0), (bad, 0.0), WORLD),
            lambda: EgoPose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, bad, 0.0])),
            lambda: EgoPose(np.array([1.0, bad, 0.0, 0.0]), np.zeros(3)),
            lambda: PixelObservation(c=(800.0, bad), T_z=10.0, R=(0.0, 1.0)),
            lambda: PixelObservation(c=(800.0, 450.0), T_z=10.0, R=(bad, 1.0)),
        ):
            with pytest.raises(DataError, match="must be finite"):
                build()

    def test_nan_depth_rejected(self):
        with pytest.raises(NonPositiveDepthError):
            PixelObservation(c=(800.0, 450.0), T_z=float("nan"), R=(0.0, 1.0))

    def test_immutable_arrays(self):
        pose = Pose5D((0.0, 0.0, 1.0), (1.0, 0.0), WORLD)
        with pytest.raises(ValueError):
            pose.T[0] = 5.0
