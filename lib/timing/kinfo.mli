(** Precomputed static instruction information shared by the SM pipeline
    and the skip engines: functional-unit class, redundancy markings
    resolved against the launch, per-instruction shape, and structural
    flags. *)

type unit_class = Alu | Sfu | Mem_global | Mem_shared | Ctrl

type t = {
  kernel : Darsie_isa.Kernel.t;
  launch : Darsie_isa.Kernel.launch;
  analysis : Darsie_compiler.Analysis.t;
  promotion : Darsie_compiler.Promotion.t;
  unit_of : unit_class array;
  is_branch : bool array;
  is_barrier : bool array;
  is_load : bool array;
  mem_dep : bool array;
      (** load or transitively load-derived ({!Analysis.mem_dep}); what a
          store/atomic invalidates in the skip table *)
  is_store : bool array;
  is_atomic : bool array;
  src_regs : int array array;
      (** vector source registers; their count is the RF read ports used *)
  dst_reg : int option array;
  tb_redundant : bool array;  (** DARSIE-skippable after promotion *)
  dac_removable : bool array;
  uv_eligible : bool array;
  marked_eligible : bool array;
      (** statically DR or CR and structurally skippable {e before}
          launch-time promotion — the skip ledger's eligibility set *)
  shape : Darsie_compiler.Marking.shape array;
}

val make :
  ?tid_y_redundancy:bool -> warp_size:int -> Darsie_isa.Kernel.launch -> t
(** Runs the compiler pass and launch-time promotion. [tid_y_redundancy]
    enables the 3D-threadblock extension (tid.y conditional redundancy). *)

val of_promotion :
  Darsie_compiler.Promotion.t -> Darsie_isa.Kernel.launch -> t
(** Reuse an existing analysis/promotion (avoids re-analyzing). *)
