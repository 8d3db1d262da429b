open Darsie_isa
open Darsie_compiler

type unit_class = Alu | Sfu | Mem_global | Mem_shared | Ctrl

type t = {
  kernel : Kernel.t;
  launch : Kernel.launch;
  analysis : Analysis.t;
  promotion : Promotion.t;
  unit_of : unit_class array;
  is_branch : bool array;
  is_barrier : bool array;
  is_load : bool array;
  mem_dep : bool array;
  is_store : bool array;
  is_atomic : bool array;
  src_regs : int array array;
  dst_reg : int option array;
  tb_redundant : bool array;
  dac_removable : bool array;
  uv_eligible : bool array;
  marked_eligible : bool array;
  shape : Marking.shape array;
}

let classify inst =
  if Instr.is_barrier inst || Instr.is_exit inst then Ctrl
  else if Instr.is_branch inst then Ctrl
  else if Instr.is_atomic inst then Mem_global
  else
    match inst.Instr.body with
    | Instr.Ld (Instr.Global, _, _, _) | Instr.St (Instr.Global, _, _, _) ->
      Mem_global
    | Instr.Ld (Instr.Shared, _, _, _) | Instr.St (Instr.Shared, _, _, _) ->
      Mem_shared
    | _ -> if Instr.is_sfu inst then Sfu else Alu

let of_promotion (promotion : Promotion.t) (launch : Kernel.launch) =
  let analysis = promotion.Promotion.analysis in
  let kernel = analysis.Analysis.kernel in
  let insts = kernel.Kernel.insts in
  let n = Array.length insts in
  {
    kernel;
    launch;
    analysis;
    promotion;
    unit_of = Array.map classify insts;
    is_branch = Array.map Instr.is_branch insts;
    is_barrier = Array.map Instr.is_barrier insts;
    is_load = Array.map Instr.is_load insts;
    mem_dep = Array.init n (Analysis.mem_dep analysis);
    is_store = Array.map Instr.is_store insts;
    is_atomic = Array.map Instr.is_atomic insts;
    src_regs = Array.map (fun i -> Array.of_list (Instr.src_regs i)) insts;
    dst_reg = Array.map Instr.dst_reg insts;
    tb_redundant = promotion.Promotion.tb_redundant;
    dac_removable = promotion.Promotion.dac_removable;
    uv_eligible = promotion.Promotion.uv_eligible;
    marked_eligible =
      Array.init n (fun i ->
          Analysis.skippable analysis i
          && Analysis.marking analysis i <> Marking.Vector);
    shape = Array.init n (fun i -> Analysis.shape analysis i);
  }

let make ?(tid_y_redundancy = false) ~warp_size (launch : Kernel.launch) =
  let analysis = Analysis.analyze ~tid_y_redundancy launch.Kernel.kernel in
  let promotion = Promotion.resolve analysis launch ~warp_size in
  of_promotion promotion launch
