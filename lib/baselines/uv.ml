open Darsie_timing
open Darsie_trace

let factory : Engine.factory =
 fun kinfo cfg _stats ->
  let n = Array.length kinfo.Kinfo.kernel.Darsie_isa.Kernel.insts in
  (* Per TB slot, allocated at the slot's first launch: the reuse buffer,
     one entry per static instruction, [occ lsl 1 lor ready] for the
     dynamic occurrence it holds (ready once written back), or [-1] when
     empty. *)
  let buffers = Array.make (max 1 cfg.Config.max_tbs_per_sm) [||] in
  let on_tb_launch ~tb_slot ~warps:_ =
    if Array.length buffers.(tb_slot) < n then
      buffers.(tb_slot) <- Array.make n (-1)
  in
  let on_issue ~cycle:_ (w : Engine.wctx) i =
    let idx = Record.idx w.Engine.trace i in
    if not kinfo.Kinfo.uv_eligible.(idx) then Engine.Execute
    else begin
      let b = buffers.(w.Engine.tb_slot) in
      let occ = Record.occ w.Engine.trace i in
      if b.(idx) asr 1 <> occ then begin
        b.(idx) <- occ lsl 1;
        Engine.Execute
      end
      else if b.(idx) land 1 = 1 then Engine.Drop
      else
        (* Value still in flight: reuse-buffer miss, execute normally. *)
        Engine.Execute
    end
  in
  let on_writeback ~cycle:_ (w : Engine.wctx) i =
    let idx = Record.idx w.Engine.trace i in
    let b = buffers.(w.Engine.tb_slot) in
    if
      kinfo.Kinfo.uv_eligible.(idx)
      && b.(idx) asr 1 = Record.occ w.Engine.trace i
    then b.(idx) <- b.(idx) lor 1
  in
  let filled acc b =
    Array.fold_left (fun acc e -> if e >= 0 then acc + 1 else acc) acc b
  in
  {
    (Engine.base ()) with
    Engine.name = "UV";
    on_issue;
    on_writeback;
    on_tb_launch;
    on_tb_finish = (fun ~tb_slot -> Array.fill buffers.(tb_slot) 0 n (-1));
    debug_state =
      (fun () -> [ ("reuse_buffer_slots", Array.fold_left filled 0 buffers) ]);
  }
