"""The banked register file: access shapes, layouts, scalar RF."""

from repro.regfile.access import (
    ACCESS_KIND_TO_ID,
    ID_TO_ACCESS_KIND,
    WRITE_KIND_IDS,
    AccessKind,
    RegisterAccess,
)
from repro.regfile.layout import (
    SIDECAR_ENERGY_FRACTION,
    BankGeometry,
    BaselineLayout,
    ByteRotatedLayout,
)
from repro.regfile.scalar_rf import SCALAR_RF_ENERGY_FRACTION, ScalarRegisterFile

__all__ = [
    "ACCESS_KIND_TO_ID",
    "ID_TO_ACCESS_KIND",
    "SCALAR_RF_ENERGY_FRACTION",
    "SIDECAR_ENERGY_FRACTION",
    "AccessKind",
    "BankGeometry",
    "BaselineLayout",
    "ByteRotatedLayout",
    "RegisterAccess",
    "ScalarRegisterFile",
    "WRITE_KIND_IDS",
]
