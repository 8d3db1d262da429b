open Darsie_timing

let factory : Engine.factory =
 fun kinfo _cfg _stats ->
  let base = Engine.base () in
  {
    base with
    Engine.name = "DAC-IDEAL";
    remove_at_fetch =
      (fun w i ->
        kinfo.Kinfo.dac_removable.(Darsie_trace.Record.idx w.Engine.trace i));
  }
