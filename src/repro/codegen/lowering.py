"""IR-to-machine lowering.

One :class:`_SectionEmitter` per output text section.  Every branch is
emitted in long form with a static relocation and a
:class:`~repro.elf.metadata.BranchFixup`, deferring target resolution
to the linker (§4.2).  Basic-block label symbols use the assembler-
temporary ``.L`` prefix; the linker resolves them but does not export
them to the executable's symbol table.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import ir
from repro.codegen.options import BBSectionsMode, CodeGenOptions
from repro.elf import (
    BlockMeta,
    BranchFixup,
    CallSite,
    PrefetchSite,
    ObjectFile,
    Relocation,
    RelocType,
    Section,
    SectionKind,
    Symbol,
    SymbolBinding,
    SymbolType,
    TerminatorKind,
    TerminatorMeta,
    bbaddrmap,
)
from repro.ir import cfg as ir_cfg
from repro.isa import Opcode, encode_instruction, instruction_size

_OP_LOWERING: Dict[ir.OpKind, Opcode] = {
    ir.OpKind.NOP: Opcode.NOP,
    ir.OpKind.ALU8: Opcode.ALU8,
    ir.OpKind.ALU16: Opcode.ALU16,
    ir.OpKind.ALU32: Opcode.ALU32,
    ir.OpKind.LOAD: Opcode.LOAD,
    ir.OpKind.STORE: Opcode.STORE,
    ir.OpKind.LEA: Opcode.LEA,
    ir.OpKind.MOV: Opcode.MOVRR,
    ir.OpKind.CMP: Opcode.CMP,
}

#: Modelled eh_frame sizes (§4.4): one CIE per object, one FDE per
#: contiguous function fragment, plus re-emitted callee-saved-register
#: CFI for every non-primary fragment.
_CIE_BYTES = 24
_FDE_BYTES = 32
_CSR_CFI_BYTES = 8

#: Modelled exception call-site table sizes (§4.5).
_LSDA_HEADER_BYTES = 8
_LSDA_CALLSITE_BYTES = 12

_JUMP_TABLE_ENTRY_BYTES = 4

#: Modelled DWARF sizes (§4.3): a function DIE, one DW_AT_ranges
#: descriptor per contiguous fragment, and per-instruction line info.
_DEBUG_DIE_BYTES = 40
_DEBUG_RANGE_DESCRIPTOR_BYTES = 16
_DEBUG_RANGE_RELOCS = 2
_DEBUG_LINE_BYTES_PER_INSTR = 3


def bb_label(func: str, bb_id: int) -> str:
    """Assembler-temporary label of a basic block."""
    return f".L{func}.__bb{bb_id}"


def _payload(func: str, bb_id: int, idx: int, nbytes: int) -> bytes:
    """Deterministic pseudo-random operand bytes.

    Derived from stable identifiers so recompiling identical IR yields
    byte-identical objects (a requirement for content-addressed
    caching).  The byte values intentionally collide with opcode bytes,
    keeping disassembly honest.
    """
    out = bytearray()
    state = zlib.crc32(f"{func}:{bb_id}:{idx}".encode())
    while len(out) < nbytes:
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        out.append((state >> 16) & 0xFF)
    return bytes(out[:nbytes])


@dataclass
class _SectionPlan:
    """One planned output text section of a function."""

    section_name: str
    leader: str
    leader_binding: SymbolBinding
    bb_ids: List[int]
    alignment: int
    is_primary: bool


class _SectionEmitter:
    """Accumulates bytes, relocations, fixups and metadata for a section."""

    def __init__(self, plan: _SectionPlan, func: str):
        self.plan = plan
        self.func = func
        self.data = bytearray()
        self.relocations: List[Relocation] = []
        self.fixups: List[BranchFixup] = []
        self.blocks: List[BlockMeta] = []
        self.local_symbols: List[Tuple[str, int]] = []
        self.num_instrs = 0

    @property
    def offset(self) -> int:
        return len(self.data)

    def emit(self, opcode: Opcode, payload: bytes = b"") -> int:
        off = self.offset
        self.data += encode_instruction(opcode, payload=payload)
        self.num_instrs += 1
        return off

    def emit_branch(self, opcode: Opcode, symbol: str, deletable: bool = False) -> int:
        """Emit a long-form branch with a relocation and a fixup."""
        off = self.offset
        self.data += encode_instruction(opcode, displacement=0)
        field_off = off + (2 if opcode == Opcode.JCC_LONG else 1)
        self.relocations.append(Relocation(offset=field_off, rtype=RelocType.PC32, symbol=symbol))
        if opcode != Opcode.CALL:
            self.fixups.append(
                BranchFixup(offset=off, opcode=opcode, symbol=symbol, deletable=deletable)
            )
        self.num_instrs += 1
        return off

    def emit_jump_table(self, targets: Sequence[str]) -> int:
        """Embed a jump table (data in code!) at the current offset."""
        off = self.offset
        for symbol in targets:
            self.relocations.append(
                Relocation(offset=self.offset, rtype=RelocType.ABS32, symbol=symbol)
            )
            self.data += b"\x00" * _JUMP_TABLE_ENTRY_BYTES
        return off

    def to_section(self) -> Section:
        return Section(
            name=self.plan.section_name,
            kind=SectionKind.TEXT,
            data=self.data,
            alignment=self.plan.alignment,
            relocations=self.relocations,
            blocks=self.blocks,
            branch_fixups=self.fixups,
        )


def _pgo_block_order(function: ir.Function, profile) -> List[int]:
    """Profile-guided top-down local layout (the PGO baseline).

    Greedily follows the hottest unplaced successor so that likely
    edges become fall-throughs, then sinks never-executed blocks to the
    end of the function (intra-section cold sinking).
    """
    edges = profile.edge_counts(function.name)
    counts = profile.block_counts(function.name)
    if not counts:
        return [b.bb_id for b in function.blocks]
    placed: List[int] = []
    placed_set = set()
    current: Optional[int] = function.entry.bb_id
    hot_ids = [b.bb_id for b in function.blocks if counts.get(b.bb_id, 0) > 0]
    while current is not None:
        placed.append(current)
        placed_set.add(current)
        successors = ir_cfg.successor_edges(function.block(current))
        best = None
        best_count = -1.0
        for succ, _prob in successors:
            if succ in placed_set:
                continue
            count = edges.get((current, succ), 0.0)
            if count > best_count:
                best, best_count = succ, count
        if best is not None and best_count > 0:
            current = best
            continue
        # Detached: continue from the hottest unplaced profiled block.
        current = None
        best_count = 0.0
        for bb_id in hot_ids:
            if bb_id in placed_set:
                continue
            count = counts.get(bb_id, 0.0)
            if count >= best_count:
                current, best_count = bb_id, count
        if current is None and best is not None:
            current = best  # cold but reachable; keep structural order going
    for block in function.blocks:  # cold sinking: zero-count blocks last
        if block.bb_id not in placed_set:
            placed.append(block.bb_id)
            placed_set.add(block.bb_id)
    return placed


def _section_plan(function: ir.Function, options: CodeGenOptions) -> List[_SectionPlan]:
    fn = function.name
    entry_id = function.entry.bb_id
    mode = options.bb_sections
    if mode == BBSectionsMode.LIST:
        clusters = options.clusters_for(fn)
        if clusters is None:
            mode = BBSectionsMode.NONE
        else:
            if not clusters or not clusters[0] or clusters[0][0] != entry_id:
                raise ValueError(f"{fn}: first cluster must start with the entry block")
            listed = [bb for cluster in clusters for bb in cluster]
            if len(listed) != len(set(listed)):
                raise ValueError(f"{fn}: block listed in multiple clusters")
            for bb in listed:
                if not function.has_block(bb):
                    raise ValueError(f"{fn}: cluster names unknown block {bb}")
            plans = [
                _SectionPlan(f".text.{fn}", fn, SymbolBinding.GLOBAL, list(clusters[0]),
                             options.align_function, True)
            ]
            for i, cluster in enumerate(clusters[1:], start=1):
                plans.append(
                    _SectionPlan(f".text.{fn}.{i}", f"{fn}.{i}", SymbolBinding.LOCAL,
                                 list(cluster), 1, False)
                )
            leftover = [b.bb_id for b in function.blocks if b.bb_id not in set(listed)]
            if leftover:
                plans.append(
                    _SectionPlan(f".text.{fn}.cold", f"{fn}.cold", SymbolBinding.LOCAL,
                                 leftover, 1, False)
                )
            return plans
    if mode == BBSectionsMode.ALL:
        plans = [
            _SectionPlan(f".text.{fn}", fn, SymbolBinding.GLOBAL, [entry_id],
                         options.align_function, True)
        ]
        for block in function.blocks:
            if block.bb_id == entry_id:
                continue
            plans.append(
                _SectionPlan(f".text.{fn}.__sec{block.bb_id}", f"{fn}.__bbsec{block.bb_id}",
                             SymbolBinding.LOCAL, [block.bb_id], 1, False)
            )
        return plans
    # NONE: a single function section, PGO-ordered when a profile exists.
    if options.ir_profile is not None:
        order = _pgo_block_order(function, options.ir_profile)
    else:
        order = [b.bb_id for b in function.blocks]
    if order[0] != entry_id:
        raise AssertionError(f"{fn}: entry block not first in layout")
    return [_SectionPlan(f".text.{fn}", fn, SymbolBinding.GLOBAL, order,
                         options.align_function, True)]


def _lower_block(
    emitter: _SectionEmitter,
    function: ir.Function,
    block: ir.BasicBlock,
    next_bb: Optional[int],
    inline_jumptables: bool,
    rodata: Optional[_SectionEmitter],
    prefetch_symbols: Sequence[str] = (),
) -> BlockMeta:
    fn = function.name
    start = emitter.offset
    calls: List[CallSite] = []
    prefetches: List[PrefetchSite] = []
    for symbol in prefetch_symbols:
        off = emitter.offset
        emitter.data += encode_instruction(Opcode.PREFETCH, payload=b"\x00" * 4)
        emitter.relocations.append(
            Relocation(offset=off + 1, rtype=RelocType.PC32, symbol=symbol)
        )
        emitter.num_instrs += 1
        prefetches.append(PrefetchSite(offset=off, symbol=symbol))
    for idx, instr in enumerate(block.instrs):
        if isinstance(instr, ir.Call):
            if instr.is_indirect:
                off = emitter.emit(Opcode.ICALL, payload=_payload(fn, block.bb_id, idx, 1))
                calls.append(
                    CallSite(offset=off, size=instruction_size(Opcode.ICALL), callee=None,
                             indirect_targets=tuple(instr.indirect_targets))
                )
            else:
                off = emitter.emit_branch(Opcode.CALL, instr.callee)
                calls.append(
                    CallSite(offset=off, size=instruction_size(Opcode.CALL), callee=instr.callee)
                )
            continue
        opcode = _OP_LOWERING[instr.kind]
        emitter.emit(opcode, payload=_payload(fn, block.bb_id, idx, instruction_size(opcode) - 1))

    term = block.term
    meta_term: TerminatorMeta
    if isinstance(term, ir.CondBr):
        taken, fallthrough, prob = term.taken, term.fallthrough, term.prob
        if taken == next_bb:
            # Invert the condition so the likely-next block falls through.
            taken, fallthrough, prob = fallthrough, taken, 1.0 - prob
        jcc_off = emitter.emit_branch(Opcode.JCC_LONG, bb_label(fn, taken))
        jcc_size = instruction_size(Opcode.JCC_LONG)
        if fallthrough == next_bb:
            meta_term = TerminatorMeta(
                kind=TerminatorKind.CONDBR,
                cond_target=bb_label(fn, taken), cond_prob=prob,
                cond_br_offset=jcc_off, cond_br_size=jcc_size,
            )
        else:
            jmp_off = emitter.emit_branch(
                Opcode.JMP_LONG, bb_label(fn, fallthrough), deletable=True
            )
            meta_term = TerminatorMeta(
                kind=TerminatorKind.CONDBR,
                cond_target=bb_label(fn, taken), cond_prob=prob,
                cond_br_offset=jcc_off, cond_br_size=jcc_size,
                uncond_target=bb_label(fn, fallthrough),
                uncond_br_offset=jmp_off, uncond_br_size=instruction_size(Opcode.JMP_LONG),
            )
    elif isinstance(term, ir.Jump):
        if term.target == next_bb:
            meta_term = TerminatorMeta(kind=TerminatorKind.FALLTHROUGH)
        else:
            jmp_off = emitter.emit_branch(Opcode.JMP_LONG, bb_label(fn, term.target), deletable=True)
            meta_term = TerminatorMeta(
                kind=TerminatorKind.JUMP,
                uncond_target=bb_label(fn, term.target),
                uncond_br_offset=jmp_off, uncond_br_size=instruction_size(Opcode.JMP_LONG),
            )
    elif isinstance(term, ir.Ret):
        off = emitter.emit(Opcode.RET)
        meta_term = TerminatorMeta(
            kind=TerminatorKind.RET, end_instr_offset=off,
            end_instr_size=instruction_size(Opcode.RET),
        )
    elif isinstance(term, ir.Switch):
        off = emitter.emit(Opcode.IJMP, payload=_payload(fn, block.bb_id, -1, 1))
        labels = [bb_label(fn, t) for t in term.targets]
        if inline_jumptables:
            emitter.emit_jump_table(labels)
        elif rodata is not None:
            rodata.emit_jump_table(labels)
        meta_term = TerminatorMeta(
            kind=TerminatorKind.IJMP, end_instr_offset=off,
            end_instr_size=instruction_size(Opcode.IJMP),
            ijmp_targets=tuple(
                (bb_label(fn, t), p) for t, p in zip(term.targets, term.probs)
            ),
        )
    elif isinstance(term, ir.Unreachable):
        off = emitter.emit(Opcode.TRAP, payload=_payload(fn, block.bb_id, -1, 1))
        meta_term = TerminatorMeta(
            kind=TerminatorKind.TRAP, end_instr_offset=off,
            end_instr_size=instruction_size(Opcode.TRAP),
        )
    else:
        raise TypeError(f"unknown terminator {term!r}")

    meta = BlockMeta(
        bb_id=block.bb_id, func=fn, offset=start, size=emitter.offset - start,
        term=meta_term, calls=calls, prefetches=prefetches,
        is_landing_pad=block.is_landing_pad,
    )
    emitter.blocks.append(meta)
    return meta


@dataclass
class CompiledObject:
    """A compiled module plus compile-cost accounting."""

    obj: ObjectFile
    module_name: str
    num_functions: int = 0
    num_blocks: int = 0
    num_instrs: int = 0
    text_bytes: int = 0

    def digest(self) -> str:
        return self.obj.content_digest()


def compile_module(module: ir.Module, options: CodeGenOptions) -> CompiledObject:
    """Lower one IR module to an object file."""
    obj = ObjectFile(name=f"{module.name}.o")
    result = CompiledObject(obj=obj, module_name=module.name)
    eh_frame_bytes = _CIE_BYTES
    addr_maps: List[Tuple[str, bytes]] = []  # (text section name, encoded map)

    for function in module.functions:
        result.num_functions += 1
        result.num_blocks += function.num_blocks
        plans = _section_plan(function, options)
        rodata: Optional[_SectionEmitter] = None
        needs_rodata = any(
            isinstance(b.term, ir.Switch) for b in function.blocks
        ) and not function.hand_written
        if needs_rodata:
            rodata = _SectionEmitter(
                _SectionPlan(f".rodata.{function.name}", "", SymbolBinding.LOCAL, [], 4, False),
                function.name,
            )
        lsda_bytes = 0
        fn_instrs = 0
        for plan in plans:
            emitter = _SectionEmitter(plan, function.name)
            # §4.5: a landing-pad block at the very start of a section
            # would have offset zero relative to @LPStart; pad with a nop.
            first = function.block(plan.bb_ids[0])
            if first.is_landing_pad:
                emitter.emit(Opcode.NOP)
            prefetch_plan: Dict[int, List[str]] = {}
            for directive in options.prefetches_for(function.name):
                bb_id, symbol = directive
                prefetch_plan.setdefault(bb_id, []).append(symbol)
            for pos, bb_id in enumerate(plan.bb_ids):
                block = function.block(bb_id)
                next_bb = plan.bb_ids[pos + 1] if pos + 1 < len(plan.bb_ids) else None
                emitter.local_symbols.append((bb_label(function.name, bb_id), emitter.offset))
                _lower_block(
                    emitter, function, block, next_bb,
                    inline_jumptables=function.hand_written, rodata=rodata,
                    prefetch_symbols=prefetch_plan.get(bb_id, ()),
                )
            section = emitter.to_section()
            obj.add_section(section)
            obj.add_symbol(Symbol(
                name=plan.leader, section=plan.section_name, offset=0, size=section.size,
                binding=plan.leader_binding, stype=SymbolType.FUNC,
            ))
            for name, offset in emitter.local_symbols:
                obj.add_symbol(Symbol(
                    name=name, section=plan.section_name, offset=offset,
                    binding=SymbolBinding.LOCAL, stype=SymbolType.NOTYPE,
                ))
            result.num_instrs += emitter.num_instrs
            fn_instrs += emitter.num_instrs
            result.text_bytes += section.size
            # §4.4: one FDE per fragment; non-primary fragments re-emit
            # callee-saved-register CFI and redefine the CFA.
            eh_frame_bytes += _FDE_BYTES
            if not plan.is_primary:
                eh_frame_bytes += _CSR_CFI_BYTES * options.callee_saved_regs
            if function.has_landing_pads():
                ncalls = sum(len(b.calls) for b in emitter.blocks)
                if ncalls:
                    lsda_bytes += _LSDA_HEADER_BYTES + _LSDA_CALLSITE_BYTES * ncalls
            if options.bb_addr_map:
                entries = tuple(
                    bbaddrmap.BBEntry(
                        bb_id=b.bb_id, offset=b.offset, size=b.size,
                        flags=(bbaddrmap.FLAG_LANDING_PAD if b.is_landing_pad else 0)
                        | (bbaddrmap.FLAG_HAS_RETURN if b.term.kind == TerminatorKind.RET else 0)
                        | (
                            bbaddrmap.FLAG_HAS_INDIRECT_JUMP
                            if b.term.kind == TerminatorKind.IJMP
                            else 0
                        ),
                    )
                    for b in emitter.blocks
                )
                encoded = bbaddrmap.encode_function_map(
                    bbaddrmap.FunctionMap(func=plan.leader, entries=entries)
                )
                addr_maps.append((plan.section_name, encoded))
        if rodata is not None and rodata.data:
            obj.add_section(Section(
                name=f".rodata.{function.name}", kind=SectionKind.RODATA,
                data=rodata.data, alignment=4, relocations=rodata.relocations,
            ))
        if lsda_bytes:
            obj.add_section(Section(
                name=f".gcc_except_table.{function.name}", kind=SectionKind.OTHER,
                data=bytearray(_payload(function.name, -2, 0, lsda_bytes)),
            ))
        if options.debug_info:
            # §4.3: ranges are per fragment; the two boundary
            # relocations per descriptor are modelled as bytes here
            # (they are resolved at link time, not retained).
            debug_bytes = (
                _DEBUG_DIE_BYTES
                + len(plans) * (_DEBUG_RANGE_DESCRIPTOR_BYTES + _DEBUG_RANGE_RELOCS * 8)
                + fn_instrs * _DEBUG_LINE_BYTES_PER_INSTR
            )
            obj.add_section(Section(
                name=f".debug_info.{function.name}", kind=SectionKind.DEBUG,
                data=bytearray(_payload(function.name, -4, 0, debug_bytes)),
            ))

    for text_name, encoded in addr_maps:
        obj.add_section(Section(
            name=f".llvm_bb_addr_map{text_name[len('.text'):]}" if text_name.startswith(".text")
            else f".llvm_bb_addr_map.{text_name}",
            kind=SectionKind.BB_ADDR_MAP,
            data=bytearray(encoded),
            link_name=text_name,
        ))
    if eh_frame_bytes > _CIE_BYTES:
        obj.add_section(Section(
            name=".eh_frame", kind=SectionKind.EH_FRAME,
            data=bytearray(_payload(module.name, -3, 0, eh_frame_bytes)),
        ))
    return result


def compile_action(
    module: ir.Module,
    options: CodeGenOptions,
    fixed_seconds: float,
    seconds_per_instr: float,
) -> Tuple[CompiledObject, float, int]:
    """One backend action: ``(artifact, simulated cost, modelled peak RAM)``.

    This is :func:`compile_module` packaged in the build system's
    action-compute signature, as a batch item of
    :meth:`~repro.buildsys.BuildSystem.run_batch`.  It must stay pure:
    everything an action produces is derived from its arguments, which
    is what makes cache replay bit-identical to a fresh compile.
    """
    compiled = compile_module(module, options)
    cost = fixed_seconds + compiled.num_instrs * seconds_per_instr
    peak = compiled.obj.total_size * 3
    return compiled, cost, peak


def compile_program(program: ir.Program, options: CodeGenOptions) -> List[CompiledObject]:
    """Lower every module of a program (convenience for tests/examples)."""
    return [compile_module(module, options) for module in program.modules]
