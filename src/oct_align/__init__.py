"""Motion correction and 3D-coherent surface tools for volumetric OCT."""

from .align import (
    AlignConfig,
    apply_axial_correction,
    global_ncc,
    local_ncc_map,
    optimize_alignment,
    solve_from_surfaces,
    surface_alignment_loss,
    template_match_align,
)
from .core import (
    DisplacementField,
    LabelMap,
    OctVolume,
    SurfaceDistribution,
    SurfaceSet,
    labels_to_surfaces,
    surfaces_to_labels,
)
from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    LabelMonotoneError,
    NumericalError,
    OctAlignError,
    SurfaceOrderError,
    ValidationError,
)
from .losses import (
    LossWeights,
    alignment_loss_semi,
    cross_entropy,
    dice_cross_entropy,
    grad,
    mixed_surfaces,
    segmentation_loss,
    smooth_l1,
    smoothness_energy,
    smoothness_weights,
    soft_argmax,
)
from .metrics import (
    adjacent_ncc,
    connectivity_histogram,
    hd95,
    mean_abs_distance,
    motion_error,
)
from .pipeline import run_pipeline
from .postprocess import crop_rows, fix_surface_order, flatten_to_bm, unflatten, uncrop_rows
from .resample import resample_axial, resample_columns
from .synth import (
    MotionSpec,
    PhantomSpec,
    apply_motion,
    generate_phantom,
    invert_motion,
    simulate_motion,
)
from .transverse import align_transverse, apply_transverse_correction, mean_projection

__version__ = "0.1.0"
