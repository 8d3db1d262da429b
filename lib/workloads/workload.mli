(** Workload interface: the paper's Table 1 applications, re-implemented
    as PTX-lite kernels with deterministic inputs and CPU reference
    implementations for functional validation. *)

type prepared = {
  mem : Darsie_emu.Memory.t;
  launch : Darsie_isa.Kernel.launch;
  verify : Darsie_emu.Memory.t -> (unit, string) result;
      (** compare device results against the CPU reference after
          execution. The reference is computed inside [verify], so
          [prepare] does not pay for it. *)
}

type dimensionality = D1 | D2

type t = {
  abbr : string;  (** Table 1 abbreviation, e.g. "MM" *)
  full_name : string;
  suite : string;  (** CUDA SDK / Rodinia / Parboil / Pannotia / GPGPU-sim *)
  block_dim : int * int;  (** Table 1 TB dimensions *)
  dimensionality : dimensionality;
  prepare : scale:int -> prepared;
      (** [scale] grows the input/grid; 1 is the default benchmarked
          size *)
}

val check_f32 :
  ?tol:float -> name:string -> expected:float array -> float array ->
  (unit, string) result
(** Relative-error comparison of float outputs. *)

val check_i32 :
  name:string -> expected:int array -> int array -> (unit, string) result
