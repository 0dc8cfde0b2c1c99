"""The benchmark's workloads; sizes are fixed in each class's ``SIZES``."""

from workloads.engine import EngineYcsb
from workloads.serve import ServeSearch, ServeSharded, ServeSteady

WORKLOADS = {
    cls.name: cls for cls in (ServeSearch, ServeSteady, ServeSharded, EngineYcsb)
}
