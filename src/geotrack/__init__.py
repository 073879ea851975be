"""Geo-localization of static roadside objects from a moving monocular camera.

The pipeline has four stages, each usable on its own:

- ``geometry``: pinhole projection, 5D poses, and frame transforms.
- ``matching``: learned pairwise object similarity with null handling,
  trained against the (n_a+1) x (n_b+1) match matrix of two frames.
- ``tracker``: assignment-based tracking and per-track pose aggregation.
- ``evaluation``: CLEAR-MOT scores and geo-localization precision/recall.

``simulator`` generates fully seeded synthetic scenes for all of them, and
``cli`` wires the stages into the ``geotrack`` command. Import from these
submodules: the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
