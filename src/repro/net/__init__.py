"""Network substrate: packets, links, switch ports, and the planned fabric."""

from repro.net.fabric import Fabric
from repro.net.link import Link
from repro.net.packet import Ack, Packet
from repro.net.switch import SwitchPort

__all__ = ["Ack", "Fabric", "Link", "Packet", "SwitchPort"]
