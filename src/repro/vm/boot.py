"""Full cold-boot of a MicroVM (no snapshot).

Models the §2.2 boot path inside a production-grade framework: the
containerd control plane (serialized section + rootfs device-mapper
mount), the Firecracker spawn and guest kernel boot, the in-guest agents
and gRPC server bootstrap, and the function runtime's own
initialization.  The paper measures 700-1300 ms for the framework part
plus "up to several seconds" of runtime bootstrap -- exactly what makes
snapshots attractive.

Booting populates the full boot footprint (Fig. 4 blue bars), which is
what a subsequent snapshot captures.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.functions.behavior import FunctionBehavior
from repro.functions.content import make_filler
from repro.functions.spec import FunctionProfile
from repro.memory.guest import BackingMode, ContentMode, GuestMemory
from repro.sim.engine import Event
from repro.sim.units import MIB, MS
from repro.vm.host import WorkerHost
from repro.vm.microvm import MicroVM, VmState


def boot_microvm(host: WorkerHost, profile: FunctionProfile,
                 behavior: FunctionBehavior,
                 content: ContentMode = ContentMode.METADATA,
                 ) -> Generator[Event, Any, MicroVM]:
    """Boot a fresh MicroVM for ``profile``; returns the running VM.

    Drive with ``yield from`` inside a simulation process (or via
    ``env.process``); the generator's value is the booted
    :class:`MicroVM`, running, connected, with its boot footprint
    resident.
    """
    params = host.params
    memory = GuestMemory(profile.vm_memory_mb * MIB,
                         mode=BackingMode.ANONYMOUS, content=content)
    vm = MicroVM(host.env, profile, behavior, memory)
    vm.transition(VmState.BOOTING)

    # Containerd: serialized bookkeeping, then rootfs (device-mapper) mount.
    grant = host.containerd_lock.claim()
    try:
        if not grant.processed:
            yield grant
        yield host.env.timeout(params.containerd_serial_ms * MS)
    finally:
        host.containerd_lock.release(grant)
    yield host.env.timeout(params.rootfs_mount_ms * MS)

    # Firecracker process and guest kernel.
    yield host.env.timeout(params.firecracker_spawn_ms * MS)
    yield host.env.timeout(params.kernel_boot_ms * MS)

    # In-guest agents, gRPC server, and runtime/user initialization.
    yield host.env.timeout((params.agent_startup_ms + profile.init_ms) * MS)

    filler = None
    if content is ContentMode.FULL:
        filler = make_filler(profile.name, behavior.epoch)
    memory.populate(behavior.boot_pages(), filler=filler)

    vm.transition(VmState.RUNNING)
    vm.connected = True
    return vm
