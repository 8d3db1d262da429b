open Darsie_timing

let factory : Engine.factory =
 fun kinfo cfg _stats ->
  let base = Engine.base () in
  let full = (1 lsl cfg.Config.warp_size) - 1 in
  {
    base with
    Engine.name = "TB-IDEAL";
    remove_at_fetch =
      (fun w i ->
        kinfo.Kinfo.tb_redundant.(Darsie_trace.Record.idx w.Engine.trace i)
        && w.Engine.warp_in_tb <> 0
        && Darsie_trace.Record.active w.Engine.trace i land full = full);
  }
