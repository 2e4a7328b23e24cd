"""Exact auditing toolkit for calibration and multicalibration distances."""

from .core import (
    BudgetExceeded,
    FiniteDomain,
    Instance,
    Marginal,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    WitnessError,
    conditional_l1,
    group_mass,
    instance_from_dict,
    instance_to_dict,
    l1_distance,
    load_instance,
    dump_instance,
    rat,
    validate,
)
from .distances import (
    DistanceResult,
    dce,
    dcma,
    dimc,
    dmc,
    dmc_lowdeg_bruteforce,
    generated_partition,
    intersection_closure,
    local_min_probe,
    wdmc,
)
from .enumeration import (
    bell_number,
    calibrated_set,
    is_calibrated,
    is_degree_r_multicalibrated,
    is_multiaccurate,
    is_multicalibrated,
    multicalibrated_set,
)
from .estimators import IntervalEstimate, dce_interval, dimc_interval, smce_empirical
from .instances import (
    gen_cdmc_example,
    gen_dcma_example,
    gen_fibonacci,
    gen_hypercube,
    gen_random,
    gen_ring,
    gen_three_point,
    gen_wdmc_local_min,
    jitter_ground_truth,
)
from .multiaccuracy import LPProblem, LPSolution, bias, dma, lp_solve, wdma

__version__ = "1.0.0"
