type span = {
  id : int;
  parent : int;
  name : string;
  mutable msg : int;
  t0 : int;
  mutable t1 : int;
  w0 : float;
  mutable w1 : float;
}

type t = {
  now : unit -> int;
  words : unit -> float;
  mutable next : int;
  mutable stack : span list;
  mutable closed : span list;  (** newest first *)
}

let host_ns () = Int64.to_int (Monotonic_clock.now ())

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let create ?(now = host_ns) ?(words = allocated_words) () =
  { now; words; next = 1; stack = []; closed = [] }

let with_span t ?(msg = -1) name f =
  let parent = match t.stack with [] -> 0 | p :: _ -> p.id in
  let w0 = t.words () in
  let t0 = t.now () in
  let s = { id = t.next; parent; name; msg; t0; t1 = t0; w0; w1 = w0 } in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  let close () =
    s.t1 <- t.now ();
    s.w1 <- t.words ();
    t.stack <- List.tl t.stack;
    t.closed <- s :: t.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let set_msg t msg = match t.stack with [] -> () | s :: _ -> s.msg <- msg
let mark t = t.next
let drop_from t id = t.closed <- List.filter (fun s -> s.id < id) t.closed

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

let self_ns spans =
  let self = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace self s.id (s.t1 - s.t0)) spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt self s.parent with
      | Some v -> Hashtbl.replace self s.parent (v - (s.t1 - s.t0))
      | None -> ())
    spans;
  self

type op = {
  op : string;
  calls : int;
  self_s : float;
  ns_p50 : float;
  ns_p99 : float;
  words_per_call : float;
}

let summarize spans =
  let self = self_ns spans in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (s :: l))
    spans;
  Hashtbl.fold
    (fun name ss acc ->
      let durs = List.map (fun s -> float_of_int (s.t1 - s.t0)) ss in
      let n = List.length ss in
      {
        op = name;
        calls = n;
        self_s =
          float_of_int
            (List.fold_left (fun a s -> a + Hashtbl.find self s.id) 0 ss)
          /. 1e9;
        ns_p50 = Stat.quantile 0.5 durs;
        ns_p99 = Stat.quantile 0.99 durs;
        words_per_call =
          List.fold_left (fun a s -> a +. (s.w1 -. s.w0)) 0.0 ss
          /. float_of_int n;
      }
      :: acc)
    by_name []
  |> List.sort (fun a b -> String.compare a.op b.op)

let coverage spans ~wall_ns =
  let roots =
    List.fold_left
      (fun a s -> if s.parent = 0 then a + (s.t1 - s.t0) else a)
      0 spans
  in
  if wall_ns <= 0 then 0.0 else float_of_int roots /. float_of_int wall_ns

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"msg\":%d,\"t0_ns\":%d,\"t1_ns\":%d,\"words\":%.0f}\n"
            s.id s.parent s.name s.msg s.t0 s.t1 (s.w1 -. s.w0))
        spans)
