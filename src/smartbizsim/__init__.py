"""smartbizsim: a deterministic smart-business simulator with a
five-step security pipeline and cost-of-security metering."""

from .calendars import Calendar, Slot, WorkingHours, find_common_slot
from .controls import (
    ChangeLevel,
    ControlCatalog,
    ControlSection,
    ImplementationPlan,
    MitigationAction,
    RiskControlMapping,
    build_plan,
    change_level,
    controls_for,
    default_action_library,
    default_control_catalog,
    default_mapping,
)
from .costs import (
    CostRates,
    CostReport,
    DmaicConfig,
    SectionCost,
    load_dmaic_config,
    monetize,
    residual_assessment,
    run_dmaic,
)
from .metering import MetricSet, SectionUsage, meter, meter_sections
from .middleware import (
    ControlLayerConfig,
    S9Config,
    S10Config,
    S17Config,
    TapObservation,
    authenticate,
    tap,
    wrap,
)
from .risk import (
    OrdinalLevel,
    Risk,
    RiskAssessment,
    RiskCatalog,
    default_risk_catalog,
    load_risk_catalog,
    rank,
    score,
    top_k,
)
from .scenario import ScenarioConfig, default_scenario, load_scenario, parse_scenario
from .trace import Trace
from .world import World, build_world

__version__ = "0.1.0"
