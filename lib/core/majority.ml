type t = { mutable cur : int; all : int }

let create ~warps =
  let all = (1 lsl warps) - 1 in
  { cur = all; all }

let on_path t w = t.cur land (1 lsl w) <> 0

let drop t w = t.cur <- t.cur land lnot (1 lsl w)

let mask t = t.cur

let covers t m = t.cur land lnot m = 0

let reset t = t.cur <- t.all
