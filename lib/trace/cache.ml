module Kernel = Darsie_isa.Kernel

let format_version = 2

let default_dir = "_cache"

(* An entry is the magic line, a small marshaled [header] — the launch,
   the warp size, the emulator stats and each warp's two buffer lengths
   as [(ops bytes, addrs bytes)] in [tb].[warp] shape — and then every
   warp's ops and addrs buffers, raw, in the same order. The magic
   carries the format version so a stale-format file from a future (or
   past) binary reads as corrupt, not as a wrong trace. *)
let magic = Printf.sprintf "DARSIE-TRACE/%d\n" format_version

type header =
  Kernel.launch * int * Darsie_emu.Interp.stats * (int * int) array array

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
}

let create ?(dir = default_dir) () =
  { dir; hits = Atomic.make 0; misses = Atomic.make 0; stores = Atomic.make 0 }

let dir t = t.dir

let hits t = Atomic.get t.hits

let misses t = Atomic.get t.misses

let stores t = Atomic.get t.stores

let summary t =
  Printf.sprintf "trace cache: %d hit(s), %d miss(es) (%s)" (hits t) (misses t)
    t.dir

let key ?(warp_size = 32) ~name ~scale (launch : Kernel.launch) =
  let b = Buffer.create 4096 in
  let dim (d : Kernel.dim3) = Printf.sprintf "%dx%dx%d" d.x d.y d.z in
  Buffer.add_string b
    (Printf.sprintf "v%d|%s|scale=%d|warp=%d|grid=%s|block=%s|params="
       format_version name scale warp_size
       (dim launch.Kernel.grid_dim)
       (dim launch.Kernel.block_dim));
  Array.iter (fun p -> Buffer.add_string b (string_of_int p ^ ","))
    launch.Kernel.params;
  (* The disassembly pins the exact instruction stream; shared_bytes and
     the register counts are not printed per-instruction, so add them. *)
  let k = launch.Kernel.kernel in
  Buffer.add_string b
    (Printf.sprintf "|regs=%d/%d/%d|shared=%d|" k.Kernel.nregs k.Kernel.npregs
       k.Kernel.nparams k.Kernel.shared_bytes);
  Buffer.add_string b (Darsie_isa.Printer.kernel_to_string k);
  Digest.to_hex (Digest.string (Buffer.contents b))

let path t key = Filename.concat t.dir (key ^ ".trace")

(* Read one entry, or [None] when it is not a well-formed trace. Every
   length is checked against the bytes left in the file before anything
   is allocated, and every buffer against the layout invariants before
   the timing model may index it, so a corrupt entry reads as a miss
   instead of failing mid-run. *)
let read_entry ic =
  let m = really_input_string ic (String.length magic) in
  if m <> magic then None
  else begin
    let ((launch, warp_size, emu_stats, lens) : header) =
      Marshal.from_channel ic
    in
    let left = in_channel_length ic - pos_in ic in
    let total = ref 0 in
    (* Claim [n] of the bytes left; comparing against [left - !total]
       cannot overflow on a corrupt length near [max_int]. *)
    let fits n =
      n >= 0 && n <= left - !total
      && begin
        total := !total + n;
        true
      end
    in
    let shape_ok =
      warp_size >= 1 && warp_size <= 32
      && Array.length lens = Kernel.num_blocks launch
      && Array.for_all
           (fun tb ->
             Array.length tb = Kernel.warps_per_block launch ~warp_size
             && Array.for_all (fun (o, a) -> fits o && fits a) tb)
           lens
    in
    if not (shape_ok && !total = left) then None
    else begin
      let read n =
        let b = Bytes.create n in
        really_input ic b 0 n;
        b
      in
      let tbs =
        Array.map
          (Array.map (fun (o, a) ->
               let ops = read o in
               let addrs = read a in
               { Record.ops; addrs }))
          lens
      in
      let ninsts = Array.length launch.Kernel.kernel.Kernel.insts in
      if Array.for_all (Array.for_all (Record.well_formed ~ninsts)) tbs then
        Some { Record.launch; warp_size; tbs; emu_stats }
      else None
    end
  end

(* [check] guards against a digest collision or a mis-filed entry: the
   loaded record must at least have the launch's threadblock/warp shape. *)
let lookup t ~key ~check =
  let p = path t key in
  let entry =
    Darsie_telemetry.Telemetry.span "cache.lookup" (fun () ->
        if not (Sys.file_exists p) then None
        else
          try
            let ic = open_in_bin p in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                match read_entry ic with
                | Some r when check r -> Some r
                | _ -> None)
          with _ -> None)
  in
  (match entry with
  | Some _ ->
    Atomic.incr t.hits;
    Darsie_telemetry.Telemetry.incr "trace_cache.hits"
  | None ->
    Atomic.incr t.misses;
    Darsie_telemetry.Telemetry.incr "trace_cache.misses");
  entry

let find t ~key = lookup t ~key ~check:(fun _ -> true)

let write_entry oc (r : Record.t) =
  let lens =
    Array.map
      (Array.map (fun (w : Record.warp) ->
           (Bytes.length w.Record.ops, Bytes.length w.Record.addrs)))
      r.Record.tbs
  in
  let (header : header) =
    (r.Record.launch, r.Record.warp_size, r.Record.emu_stats, lens)
  in
  output_string oc magic;
  Marshal.to_channel oc header [];
  Array.iter
    (Array.iter (fun (w : Record.warp) ->
         output_bytes oc w.Record.ops;
         output_bytes oc w.Record.addrs))
    r.Record.tbs

(* A failed write or rename removes the temp file, so nothing is left
   behind; [close_out] inside the write makes a failed final flush
   count as a failed write rather than renaming a short file into
   place. *)
let store t ~key r =
  try
    if not (Sys.file_exists t.dir) then (
      try Sys.mkdir t.dir 0o755 with Sys_error _ -> ());
    let final = path t key in
    let tmp =
      Printf.sprintf "%s.%d.%d.tmp" final (Unix.getpid ())
        (Domain.self () :> int)
    in
    let oc = open_out_bin tmp in
    try
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          write_entry oc r;
          close_out oc);
      Sys.rename tmp final;
      Atomic.incr t.stores;
      Darsie_telemetry.Telemetry.incr "trace_cache.stores"
    with e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  with _ -> ()

let generate ?(warp_size = 32) t ~name ~scale mem launch =
  let k = key ~warp_size ~name ~scale launch in
  let shape_ok (r : Record.t) =
    r.Record.warp_size = warp_size
    && Record.num_tbs r = Kernel.num_blocks launch
    && Record.warps_per_tb r = Kernel.warps_per_block launch ~warp_size
  in
  match lookup t ~key:k ~check:shape_ok with
  | Some r -> r
  | None ->
    let r = Record.generate ~warp_size mem launch in
    store t ~key:k r;
    r
