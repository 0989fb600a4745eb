"""Toolkit for generalized parametric metric spaces on concrete carriers.

Validates the binary-operation and parametric-distance axiom systems,
generates grid topologies with ball/closure lemma checks, constructs
separation witnesses, computes induced alpha-metrics with a topology
comparison, and certifies sequence-level statements (convergence, Cauchy,
diameters, Cantor intersection) on finite carriers and sampled intervals.

All checkers are pure and deterministic given their seeds.  The P-axioms of
the formula families under plus or max are decided exactly for all t > 0;
every other verdict is falsification-only (see ``reports``).
"""

from .errors import (
    ConstructionError,
    DomainError,
    GpmsError,
    HypothesisError,
    NoSolutionError,
    ParseError,
    PreconditionError,
    SizeError,
    VerificationError,
    WitnessNotFoundError,
)
from .reports import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckReport,
    ScanWitnesses,
    Witness,
    canonical,
)
from .binop import (
    MAX,
    OP_AXIOMS,
    PLUS,
    BinaryOperation,
    SampleGrid,
    check_op_axiom,
    eval_op,
    eval_op_array,
    solve_third,
    split_below,
    sub_idempotent,
)
from .core import (
    FAMILIES,
    P_AXIOMS,
    FiniteCarrier,
    GpmsInstance,
    IntervalCarrier,
    check_P_axiom,
    check_P_axioms,
    eval_P,
    gallery_construct,
    p3_violations,
    p4_violations,
    tabulate_step_family,
)
from .balls import (
    SubsetMask,
    TopologyFamily,
    closed_ball,
    closure_and_limit_points,
    generate_topology,
    interior,
    is_open,
    open_ball,
    verify_ball_theorem,
)
from .separation import (
    BallSpec,
    SeparationWitness,
    countable_base,
    separation_witness,
    verify_witness,
)
from .induced import (
    AlphaMetric,
    BisectionSettings,
    alpha_metric_table,
    check_alpha_metric_axioms,
    check_alpha_monotonicity,
    compare_topologies,
    d_alpha,
)
from .sequences import (
    ClosedInterval,
    SequenceSpec,
    cantor_intersection,
    check_bounded,
    check_cauchy,
    check_closure_diameter,
    check_compact_closed_bounded,
    check_convergence,
    diameter,
    joint_continuity_check,
    subsequence_completeness_check,
)
from .cli import (
    COMMANDS,
    InstanceFile,
    Options,
    Report,
    load_instance,
    main,
    run_command,
    validate_instance_file,
)

__version__ = "0.1.0"
