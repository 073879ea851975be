"""Geo-localization of static roadside objects from a moving monocular camera.

The pipeline has four stages, each usable on its own:

- ``geometry``: pinhole projection, 5D poses, and frame transforms.
- ``matching``: learned pairwise object similarity with null handling,
  trained against the (n_a+1) x (n_b+1) match matrix of two frames.
- ``tracker``: assignment-based tracking and per-track pose aggregation.
- ``evaluation``: CLEAR-MOT scores and geo-localization precision/recall.

``simulator`` generates fully seeded synthetic scenes for all of them, and
``cli`` wires the stages into the ``geotrack`` command.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    CameraIntrinsics,
    EgoPose,
    PixelObservation,
    Pose5D,
    angular_error,
    camera_to_world,
    normalize_rotation,
    project,
    recover_translation,
    world_to_camera,
)
from .scene import (  # noqa: F401
    Detection,
    FrameRecord,
    SceneSequence,
    build_match_matrix,
    load_scene,
    sample_training_pairs,
    save_scene,
)
from .matching import (  # noqa: F401
    Matcher,
    MatcherConfig,
    MatcherParams,
    augment_normalize,
    build_pair_tensor,
    load_checkpoint,
    save_checkpoint,
    train_matcher,
)
from .assignment import AssignmentResult, hungarian  # noqa: F401
from .tracker import (  # noqa: F401
    Track,
    TrackerState,
    aggregate_pose,
    finalize,
    score_matrix,
    step,
    track_scene,
)
from .evaluation import (  # noqa: F401
    GeoCriterion,
    MotReport,
    mahalanobis_distance,
    mot_metrics,
    pr_curve,
    translation_error_stats,
)
from .simulator import SimConfig, generate_scene, make_matching_dataset  # noqa: F401
