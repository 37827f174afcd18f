"""The detailed core's per-cycle paths load no enum member.

On CPython 3.10 and 3.11 the enum metaclass defines ``__getattr__``, so
a member load such as ``OpClass.LOAD`` costs several module-global
loads.  :mod:`repro.core.pipeline` therefore binds every member it
compares against once, at import,
:class:`~repro.core.cfd_hw.HardwareBQ` hands out the stored int of a
popped entry's level, and
:class:`~repro.memsys.hierarchy.MemoryHierarchy` returns one of a few
prebuilt, frozen :class:`~repro.memsys.hierarchy.AccessResult` objects
per access.  These tests build the pipelines first, then swap the three
modules' enum names for counting proxies and run: a run must load no
member and produce the stats of an unpatched run.  They count; they
never time.
"""

import dataclasses
import json

import pytest

import repro.core.cfd_hw as cfd_hw_module
import repro.core.pipeline as pipeline_module
import repro.memsys.hierarchy as hierarchy_module
from repro.core import memory_bound_config, sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.core.warm import warm_advance
from repro.isa import assemble
from repro.memsys.hierarchy import AccessResult, MemLevel, MemoryHierarchy
from repro.workloads import get_workload

_ENUM_NAMES = ("OpClass", "Opcode", "MemLevel")
_CONFIGS = {
    "sandy_bridge": sandy_bridge_config,
    "memory_bound": memory_bound_config,
}

#: Reference programs at scale 0.125: BQ pushes and pops (soplex cfd),
#: TQ traffic and Branch_on_TCR (bzip2 tq), prefetches and memory-bound
#: misses (astar dfd), VQ pushes and pops (astar cfd_dfd).
_CASES = {
    "soplex_cfd": ("soplex", "cfd", "ref", "sandy_bridge"),
    "bzip2_tq": ("bzip2", "tq", "chicken", "sandy_bridge"),
    "astar_dfd": ("astar_r1", "dfd", "Rivers", "memory_bound"),
    "astar_cfd_dfd": ("astar_r1", "cfd_dfd", "BigLakes", "sandy_bridge"),
}
_BUDGET = 3000

#: What no reference program reaches: direct and indirect JALR, byte
#: loads and stores, DIV, CMOVZ, NOP, Mark/Forward, every queue save and
#: restore, and Pop_TQ_BOV on both its paths.
_EVERY_PATH = """
.data
buf:    .word 0, 0, 0, 0
bspill: .space 64
vspill: .space 64
tspill: .space 64
.text
main:
    la   r20, buf
    li   r9, 6
    la   r2, target
calls:
    jal  r31, leaf
    jalr r1, r2
after:
    addi r9, r9, -1
    bnez r9, calls
    li   r1, 200
    sb   r1, 1(r20)
    lb   r3, 1(r20)
    lbu  r5, 1(r20)
    prefetch 64(r20)
    li   r6, 7
    div  r7, r5, r6
    cmovz r8, r7, r0
    nop
    li   r3, 6
gen:
    push_bq r1
    addi r3, r3, -1
    bnez r3, gen
    mark
    b_bq a
a:  b_bq b
b:  forward
    la   r21, bspill
    li   r1, 1
    push_bq r1
    push_bq r0
    save_bq 0(r21)
    b_bq x
x:  b_bq y
y:  restore_bq 0(r21)
    b_bq t
    j    n
t:  addi r4, r4, 1
n:  b_bq u
    j    v
u:  addi r4, r4, 10
v:  la   r21, vspill
    li   r1, 41
    push_vq r1
    save_vq 0(r21)
    pop_vq r10
    restore_vq 0(r21)
    pop_vq r11
    la   r21, tspill
    li   r1, 100000
    push_tq r1
    li   r12, 3
    push_tq r12
    save_tq 0(r21)
    restore_tq 0(r21)
    pop_tq_bov big
    li   r13, 1
    j    second
big:
    li   r13, 2
second:
    pop_tq_bov big2
    j    done
big2:
    li   r13, 99
done:
    halt
leaf:
    addi r14, r14, 1
    jalr r0, r31
target:
    addi r15, r15, 1
    j    after
"""


class _CountingEnum:
    """Stands in for an enum class and counts every member handed out,
    by attribute or by value lookup."""

    def __init__(self, enum):
        self._enum = enum
        self.loads = 0

    def __getattr__(self, name):
        self.loads += 1
        return getattr(self._enum, name)

    def __call__(self, value):
        self.loads += 1
        return self._enum(value)


def _count_enum_loads(monkeypatch):
    """Swap the enum names of the pipeline, hardware-queue and hierarchy
    modules for counting proxies; returns ``{"module.Name": proxy}``."""
    proxies = {}
    for module in (pipeline_module, cfd_hw_module, hierarchy_module):
        for name in _ENUM_NAMES:
            if hasattr(module, name):
                proxy = _CountingEnum(getattr(module, name))
                monkeypatch.setattr(module, name, proxy)
                proxies["%s.%s" % (module.__name__, name)] = proxy
    return proxies


def _programs():
    programs = {}
    for name, (workload, variant, input_name, config) in _CASES.items():
        built = get_workload(workload).build(variant, input_name, 0.125, 1)
        programs[name] = (built.program, config, _BUDGET)
    programs["every_path"] = (assemble(_EVERY_PATH), "sandy_bridge", None)
    return programs


def _full_run(pipeline, budget):
    stats = pipeline.run(budget)
    return json.dumps([stats.to_dict(), pipeline.metrics()], sort_keys=True)


def _sampled_round(pipeline):
    """One detailed slice, a drain, a live warm gap, a restore of the
    committed state, and a second slice."""
    first = pipeline.run_slice(1500)
    pipeline.drain_to_committed()
    warm_advance(pipeline, 1000)
    checker = pipeline.checker
    pipeline.restore_committed_state(checker.state.snapshot(), checker.retired)
    second = pipeline.run_slice(1500)
    return json.dumps([first.to_dict(), second.to_dict(), pipeline.metrics()],
                      sort_keys=True)


def test_detailed_runs_load_no_enum_member(monkeypatch):
    programs = _programs()
    expected = {
        name: _full_run(Pipeline(program, _CONFIGS[config]()), budget)
        for name, (program, config, budget) in programs.items()
    }
    expected["sampled_round"] = _sampled_round(
        Pipeline(programs["soplex_cfd"][0], sandy_bridge_config()))
    pipelines = {
        name: Pipeline(program, _CONFIGS[config]())
        for name, (program, config, _budget) in programs.items()
    }
    round_pipeline = Pipeline(programs["soplex_cfd"][0], sandy_bridge_config())

    proxies = _count_enum_loads(monkeypatch)
    got = {
        name: _full_run(pipelines[name], budget)
        for name, (_program, _config, budget) in programs.items()
    }
    got["sampled_round"] = _sampled_round(round_pipeline)
    monkeypatch.undo()

    assert {name: proxy.loads for name, proxy in proxies.items()} == {
        name: 0 for name in proxies}
    assert sorted(proxies) == [
        "repro.core.cfd_hw.MemLevel",
        "repro.core.pipeline.MemLevel", "repro.core.pipeline.OpClass",
        "repro.core.pipeline.Opcode", "repro.memsys.hierarchy.MemLevel"]
    assert got == expected

    # The runs reached the paths they are here for.
    stats = {name: json.loads(doc)[0] for name, doc in expected.items()
             if name != "sampled_round"}
    assert stats["soplex_cfd"]["bq_pushes"] and stats["soplex_cfd"]["bq_pops"]
    assert stats["bzip2_tq"]["tq_pushes"] and stats["bzip2_tq"]["tcr_branches"]
    assert stats["astar_dfd"]["events"]["prefetch_issue"]
    assert stats["astar_cfd_dfd"]["vq_pushes"] and stats["astar_cfd_dfd"]["vq_pops"]
    assert stats["every_path"]["forward_bulk_pops"] == 4
    regs = pipelines["every_path"].checker.state.regs
    assert (regs[14], regs[15], regs[4], regs[11], regs[13]) == (6, 6, 1, 41, 2)


@pytest.mark.parametrize("make_config", sorted(_CONFIGS.values(),
                                               key=lambda f: f.__name__),
                         ids=lambda f: f.__name__)
def test_hierarchy_returns_shared_frozen_results(make_config):
    memory = make_config().memory
    l2, l3 = memory.l2.hit_latency, memory.l3.hit_latency
    for first, access in ((memory.l1d.hit_latency, "access_data"),
                          (memory.l1i.hit_latency, "access_inst")):
        want = {
            MemLevel.L1: first,
            MemLevel.L2: first + l2,
            MemLevel.L3: first + l2 + l3,
            MemLevel.MEM: first + l2 + l3 + memory.dram_latency,
        }
        hierarchy = MemoryHierarchy(memory)
        walk = getattr(hierarchy, access)
        results = {}
        for block in range(2):  # two lines per level: one shared result
            addr = block * 4096
            served = [walk(addr)]  # cold: from DRAM
            served.append(walk(addr))  # now an L1 hit
            hierarchy.l2.fill(addr + (1 << 20))  # only in L2
            served.append(walk(addr + (1 << 20)))
            hierarchy.l3.fill(addr + (2 << 20))  # only in L3
            served.append(walk(addr + (2 << 20)))
            for result in served:
                assert result is results.setdefault(result.level, result)
        assert {level: r.latency for level, r in results.items()} == want
        for result in results.values():
            assert isinstance(result, AccessResult)
            with pytest.raises(dataclasses.FrozenInstanceError):
                result.latency = 0
