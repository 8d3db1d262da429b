open Darsie_timing

let geomean xs =
  match xs with
  | [] -> 1.0
  | _ ->
    let logs = List.map (fun x -> log (max x 1e-4)) xs in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percent part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let ratio part whole =
  if whole = 0 then 0.0 else float_of_int part /. float_of_int whole

(* ------------------------------------------------------------------ *)
(* Stats projections                                                   *)
(* ------------------------------------------------------------------ *)

let to_assoc = Stats.to_assoc

let sum stats =
  let acc = Stats.create () in
  List.iter (fun s -> Stats.add acc s) stats;
  acc

(* ------------------------------------------------------------------ *)
(* Derived metrics                                                     *)
(* ------------------------------------------------------------------ *)

let ipc (s : Stats.t) = ratio s.Stats.issued s.Stats.cycles

let l1_miss_rate (s : Stats.t) = ratio s.Stats.l1_misses s.Stats.l1_accesses

let fetch_skip_fraction (s : Stats.t) =
  ratio s.Stats.skipped_prefetch (s.Stats.fetched + s.Stats.skipped_prefetch)

let elimination_pct (s : Stats.t) ~baseline_issued =
  percent (Stats.total_eliminated s) baseline_issued

let derived (s : Stats.t) =
  [
    ("ipc", ipc s);
    ("l1_miss_rate", l1_miss_rate s);
    ("fetch_skip_fraction", fetch_skip_fraction s);
    ("icache_miss_rate", ratio s.Stats.icache_misses
       (s.Stats.fetched + s.Stats.icache_misses));
    ("rf_reads_per_issue", ratio s.Stats.rf_reads s.Stats.issued);
  ]
