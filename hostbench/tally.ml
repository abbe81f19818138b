(** Failure accounting: every scenario a run tries is counted once, and a
    scenario that raises, diverges or fails a check is counted as failed
    (once, however many times it was replayed) without stopping the run. *)

type failure = { seed : int; reason : string; repro : string }

type t = {
  mutable attempted : int list;  (** scenario seeds tried, newest first *)
  mutable failures : failure list;  (** newest first *)
  mutable wrong_output : bool;
      (** some finished scenario produced an output that failed a check *)
}

let create () = { attempted = []; failures = []; wrong_output = false }

let attempted t = List.length t.attempted
let failed t = List.length t.failures
let failures t = List.rev t.failures

let ratio t =
  if t.attempted = [] then 0.0
  else float_of_int (failed t) /. float_of_int (attempted t)

let note_attempt t ~seed =
  if not (List.mem seed t.attempted) then t.attempted <- seed :: t.attempted

let fail t w ~seed reason =
  if not (List.exists (fun f -> f.seed = seed) t.failures) then begin
    let f = { seed; reason; repro = Workload.repro w ~seed } in
    t.failures <- f :: t.failures;
    Printf.printf "FAILED %s scenario seed %d: %s\n  reproduce: %s\n%!" w.Workload.name
      seed reason f.repro
  end

(** Output checks failed: the program finished but its result is wrong. *)
let wrong t w ~seed reason =
  t.wrong_output <- true;
  fail t w ~seed reason

(** [guard t w ~seed f] runs one scenario step; an exception is counted as
    that scenario's failure and turned into [None], so the run goes on. *)
let guard t w ~seed f =
  note_attempt t ~seed;
  match f () with
  | v -> Some v
  | exception (Out_of_memory as e) -> raise e
  | exception e ->
      fail t w ~seed (Printexc.to_string e);
      None
