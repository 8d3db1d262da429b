open Darsie_timing
open Darsie_trace

type buf_slot = { occ : int; mutable ready : bool }

let factory : Engine.factory =
 fun kinfo _cfg stats ->
  (* (tb_slot, pc) -> reuse-buffer slot *)
  let buffer : (int * int, buf_slot) Hashtbl.t = Hashtbl.create 256 in
  let on_issue ~cycle:_ (w : Engine.wctx) i =
    let idx = Record.idx w.Engine.trace i in
    if not kinfo.Kinfo.uv_eligible.(idx) then Engine.Execute
    else begin
      let key = (w.Engine.tb_slot, idx) in
      let occ = Record.occ w.Engine.trace i in
      match Hashtbl.find_opt buffer key with
      | Some slot when slot.occ = occ && slot.ready -> Engine.Drop
      | Some slot when slot.occ = occ ->
        (* Value still in flight: reuse-buffer miss, execute normally. *)
        Engine.Execute
      | _ ->
        Hashtbl.replace buffer key { occ; ready = false };
        Engine.Execute
    end
  in
  let on_writeback ~cycle:_ (w : Engine.wctx) i =
    let idx = Record.idx w.Engine.trace i in
    if kinfo.Kinfo.uv_eligible.(idx) then
      match Hashtbl.find_opt buffer (w.Engine.tb_slot, idx) with
      | Some slot when slot.occ = Record.occ w.Engine.trace i ->
        slot.ready <- true
      | _ -> ()
  in
  let on_tb_finish ~tb_slot =
    Hashtbl.iter
      (fun (s, pc) _ -> if s = tb_slot then Hashtbl.remove buffer (s, pc))
      (Hashtbl.copy buffer)
  in
  ignore stats;
  {
    Engine.name = "UV";
    cycle_skip = (fun ~cycle:_ -> ());
    skip_reads_warp_state = false;
    skip_steady = (fun () -> true);
    bulk_skip = (fun ~cycle:_ ~n:_ -> ());
    on_fast_forward = (fun ~cycle:_ -> ());
    recheck_fetch = (fun _ -> true);
    remove_at_fetch = (fun _ _ -> false);
    on_issue;
    on_writeback;
    on_store = (fun ~atomic:_ _ -> ());
    exec_fate = (fun _ _ -> Darsie_obs.Ledger.Skip_disabled);
    set_ledger = (fun _ -> ());
    on_tb_launch = (fun ~tb_slot:_ ~warps:_ -> ());
    on_tb_finish;
    debug_state = (fun () -> [ ("reuse_buffer_slots", Hashtbl.length buffer) ]);
    pc_telemetry = (fun () -> []);
  }
