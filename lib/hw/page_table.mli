(** Four-level page tables stored *in* simulated physical memory, so that
    write-protecting page-table pages (the Nested Kernel discipline Erebor
    follows, §5.2) is enforced by the same access checks as any other store.

    Leaves are 4 KiB page-table entries or 2 MiB page-directory entries
    (PS bit). The paper's prototype disables huge pages to keep PKS
    granularity simple; here the walker honours them, [map_huge] installs
    them, and the monitor splits them before retagging
    ([Mmu_guard.split_huge_leaf], the future work of §7). Virtual addresses
    are 48-bit (9+9+9+12).

    There is one descent. {!lookup} is its allocation-free form and returns
    one immediate; [walk], [leaf_addr], [prepare_leaf], [map], [map_huge],
    [unmap] and [update] are thin layers over it. *)

type walk_result = {
  pte : Pte.t;           (** Leaf entry. *)
  pte_addr : int;        (** Physical address of the leaf entry. *)
  user : bool;           (** U/S ANDed across all levels. *)
  writable : bool;       (** R/W ANDed across all levels. *)
  nx : bool;             (** NX ORed across all levels. *)
  huge : bool;           (** Leaf is a 2 MiB page-directory entry. *)
  pfn : int;             (** Frame resolved for the walked address. *)
}

val split : int -> int * int * int * int
(** [split vaddr] is the four 9-bit indices (PML4, PDPT, PD, PT). *)

val page_base : int -> int
(** Round a virtual address down to its page. *)

(** {2 Packed lookup}

    [lookup mem ~root_pfn vaddr] descends to the slot of the leaf mapping
    [vaddr] without allocating: it reads each entry as two 32-bit halves,
    so no [int64] is built (an [int64] crossing a module boundary is boxed
    when modules are compiled [-opaque], as dune's dev profile does).

    The result is negative when a level above the leaf is non-present
    ([found] is false). Otherwise it packs the slot address, the slot
    entry's P bit and protection key, U/S and R/W ANDed and NX ORed across
    every level read, and whether the slot is a 2 MiB page-directory leaf.
    The accessors below read those fields; [slot] and the flag accessors
    are meaningful only when [found], the flags only when [present]. *)

val lookup : Phys_mem.t -> root_pfn:int -> int -> int

val found : int -> bool
(** Every intermediate level is present (the slot itself may be empty). *)

val present : int -> bool
(** [found] and the slot holds a present entry: [vaddr] is mapped. *)

val slot : int -> int
(** Physical address of the leaf entry (the PD entry for a 2 MiB leaf). *)

val user : int -> bool
val writable : int -> bool
val nx : int -> bool

val huge : int -> bool
(** The leaf is a 2 MiB page-directory entry. *)

val pkey : int -> int
(** Protection key of the leaf entry. *)

val frame : Phys_mem.t -> int -> int -> int
(** [frame mem r vaddr]: the frame backing [vaddr] under a [present]
    lookup [r] (offset into the 2 MiB frame run for a huge leaf). *)

val mark_accessed : Phys_mem.t -> int -> dirty:bool -> unit
(** Set the leaf's accessed bit (and dirty bit when [dirty]) in place, as
    the hardware walker does on a TLB fill; no store when already set. *)

val present_frame : Phys_mem.t -> int -> int
(** Frame named by the entry stored at a physical address, or [-1] when
    that entry is not present. Allocation-free. *)

(** {2 Record API} *)

val walk : Phys_mem.t -> root_pfn:int -> int -> walk_result option
(** [walk mem ~root_pfn vaddr] follows the tree; [None] if any level is
    non-present. *)

val leaf_addr : Phys_mem.t -> root_pfn:int -> int -> int option
(** Physical address of the leaf PTE slot for [vaddr], if all intermediate
    levels are present (the slot itself may hold a non-present entry). Under
    a 2 MiB leaf this is the page-directory entry itself. *)

type writer = pte_addr:int -> Pte.t -> unit
(** How PTE stores reach memory. The native kernel writes directly; under
    Erebor the callback is an EMC into the monitor. This indirection *is* the
    paper's kernel instrumentation. *)

val map :
  Phys_mem.t ->
  write_pte:writer ->
  alloc_ptp:(unit -> int) ->
  root_pfn:int ->
  vaddr:int ->
  Pte.t ->
  unit
(** Install a leaf mapping, allocating intermediate page-table pages with
    [alloc_ptp] (which must return zeroed frames) as needed. Intermediate
    entries are created present/writable/user; leaves carry real policy. *)

val huge_page_size : int
(** 2 MiB. *)

val map_huge :
  Phys_mem.t ->
  write_pte:writer ->
  alloc_ptp:(unit -> int) ->
  root_pfn:int ->
  vaddr:int ->
  Pte.t ->
  unit
(** Install a 2 MiB leaf at the page-directory level. Both the virtual
    address and the frame must be 2 MiB-aligned. *)

val prepare_leaf :
  Phys_mem.t -> write_pte:writer -> alloc_ptp:(unit -> int) -> root_pfn:int ->
  vaddr:int -> int
(** Ensure all intermediate levels exist (allocating as needed) and return
    the physical address of the leaf slot *without* writing it — the
    building block for batched leaf installation, and [map] is this plus
    one store. Raises [Invalid_argument] when [vaddr] lies under a 2 MiB
    leaf (split it first). *)

val unmap : Phys_mem.t -> write_pte:writer -> root_pfn:int -> vaddr:int -> unit
(** Clear the leaf entry; no-op if the mapping doesn't exist. *)

val update :
  Phys_mem.t -> write_pte:writer -> root_pfn:int -> vaddr:int -> (Pte.t -> Pte.t) -> bool
(** Read-modify-write the leaf entry for [vaddr]; [false] when unmapped. *)
