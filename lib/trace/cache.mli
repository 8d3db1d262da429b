(** Content-addressed, persistent cache of functional traces.

    The timing model is trace-driven and the trace is machine-invariant:
    the per-warp dynamic instruction stream of an (app, launch geometry,
    input) triple depends only on the functional emulation, never on
    which timing machine replays it. So the emulator needs to run {e
    once} per workload — the same trace replays through BASE, DARSIE and
    every ablation, and across CLI invocations.

    A cache entry is keyed by a digest of everything the emulation can
    observe: the kernel's full disassembly, the grid and block
    dimensions, the launch parameters, the warp size, the workload name
    and input scale, and the cache format version. Any change to any of
    these — including recompiling a workload into different code —
    produces a different key, so entries never go stale; they only
    become garbage (the directory can be deleted at any time).

    Entries are stored under [dir/<digest>.trace] with an atomic
    write-then-rename, so concurrent writers (parallel suite workers, or
    two CLI processes) race benignly: both write identical bytes and the
    last rename wins.

    An entry (format 2) is a magic line naming the format version, a
    small marshaled header — the launch, the warp size, the emulator
    stats and each warp's two buffer lengths — and then every warp's
    {!Record.warp} buffers, raw, in [tb].[warp] order: the file is the
    trace's memory image, and a load reads each buffer straight into its
    final [Bytes]. A corrupt or truncated entry is treated as a miss and
    regenerated: lengths are checked against the bytes left in the file
    before anything is allocated, and each buffer against
    {!Record.well_formed}. *)

type t
(** A cache handle: the entry directory plus hit/miss/store counters.
    The counters are atomics — one handle may be shared by every worker
    of a {e parallel} suite build. *)

val format_version : int
(** Bumped whenever the on-disk layout or the trace record type changes;
    part of the key, so old entries are simply never looked up again. *)

val default_dir : string
(** ["_cache"], resolved relative to the working directory. *)

val create : ?dir:string -> unit -> t
(** Make a handle rooted at [dir] (default {!default_dir}). The
    directory is created lazily on the first {!store}. *)

val dir : t -> string

val hits : t -> int
(** Lookups served from disk since [create]. *)

val misses : t -> int
(** Lookups that fell through to the emulator since [create]. *)

val stores : t -> int
(** Entries written since [create]. *)

val summary : t -> string
(** One human line, e.g. ["trace cache: 13 hit(s), 0 miss(es) (_cache)"]. *)

val key :
  ?warp_size:int -> name:string -> scale:int -> Darsie_isa.Kernel.launch ->
  string
(** The content digest (hex) identifying one functional trace. *)

val find : t -> key:string -> Record.t option
(** Disk lookup; counts a hit or a miss. Unreadable entries are misses. *)

val store : t -> key:string -> Record.t -> unit
(** Persist an entry (atomic rename); failures to write — read-only
    disk, no space, a directory in the way — are silently ignored and
    leave no temp file behind: the cache is an accelerator, never a
    correctness dependency. *)

val generate :
  ?warp_size:int ->
  t ->
  name:string ->
  scale:int ->
  Darsie_emu.Memory.t ->
  Darsie_isa.Kernel.launch ->
  Record.t
(** Cached front-end to {!Record.generate}: return the stored trace when
    the key is present, otherwise emulate, store and return. On a hit
    the emulator does {e not} run, so [mem] is left untouched — callers
    that read the post-kernel memory (functional verification does) must
    run the emulator themselves on a fresh workload instance, which is
    what every existing verify path already does. *)
