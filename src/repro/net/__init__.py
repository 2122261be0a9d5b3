"""Simulated network substrate.

This package is the testbed the paper ran on, rebuilt in software:

* a discrete-event kernel (:mod:`repro.net.events`, :mod:`repro.net.env`)
  with generator-based processes, in the style popularized by SimPy;
* stochastic capacity and latency processes (:mod:`repro.net.bandwidth`,
  :mod:`repro.net.latency`) modelling WiFi and LTE dynamics;
* a fluid bottleneck link that carries one flow at a time
  (:mod:`repro.net.link`) and a TCP connection model on top of it
  (:mod:`repro.net.tcp`) that charges 3-way-handshake, slow-start, and
  per-request round-trip costs — the effects the paper's chunk scheduler
  must navigate;
* a TLS handshake *timing* model (:mod:`repro.net.tls`) reproducing the
  Fig. 1 message sequence;
* host/interface/topology plumbing (:mod:`repro.net.iface`,
  :mod:`repro.net.topology`) including the per-interface routing-table
  binding that MSPlayer's implementation section (§4) describes, and a
  stub DNS resolver (:mod:`repro.net.dns`).
"""

from .env import Environment
from .events import AllOf, Event, Process, Timeout
from .bandwidth import (
    ARLogNormalBandwidth,
    BandwidthProcess,
    CompositeBandwidth,
    ConstantBandwidth,
    MarkovBandwidth,
    TraceBandwidth,
)
from .latency import ConstantLatency, JitteredLatency, LatencyProcess
from .link import Link
from .tcp import TCPConnection, TCPParams
from .tls import TLSParams, tls_handshake_duration
from .iface import NetworkInterface
from .dns import StubResolver
from .topology import Host, Network

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "BandwidthProcess",
    "ConstantBandwidth",
    "MarkovBandwidth",
    "ARLogNormalBandwidth",
    "TraceBandwidth",
    "CompositeBandwidth",
    "LatencyProcess",
    "ConstantLatency",
    "JitteredLatency",
    "Link",
    "TCPConnection",
    "TCPParams",
    "TLSParams",
    "tls_handshake_duration",
    "NetworkInterface",
    "StubResolver",
    "Host",
    "Network",
]
