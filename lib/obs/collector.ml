(* Per-domain streams behind one switch, shared by spans and the
   journal: no lock on the hot path, a lazily re-registered stream per
   (domain, collection epoch), and a deterministic (domain tag, seq)
   merge after the recorded work has joined. *)

type 'a stream = {
  mutable tag : int;
  mutable epoch : int;
  mutable items : (int * 'a) list;  (* (seq, item), newest first *)
  mutable next_seq : int;
  mutable depth : int;  (* regions open in this domain *)
}

type 'a t = {
  on : bool Atomic.t;
  epoch : int Atomic.t;
  next_tag : int Atomic.t;
  lock : Mutex.t;
  mutable registry : 'a stream list;
  key : 'a stream Domain.DLS.key;
}

let create () =
  {
    on = Atomic.make false;
    epoch = Atomic.make 0;
    next_tag = Atomic.make 0;
    lock = Mutex.create ();
    registry = [];
    key =
      Domain.DLS.new_key (fun () ->
          { tag = -1; epoch = -1; items = []; next_seq = 0; depth = 0 });
  }

(* The calling domain's stream for the current collection.  Streams
   outlive their domains (Parutil joins workers, then the caller
   reads), and a stale stream from a previous collection re-registers
   itself on first use. *)
let stream t =
  let s = Domain.DLS.get t.key in
  let e = Atomic.get t.epoch in
  if s.epoch <> e then begin
    s.epoch <- e;
    s.items <- [];
    s.next_seq <- 0;
    s.depth <- 0;
    s.tag <- Atomic.fetch_and_add t.next_tag 1;
    Mutex.protect t.lock (fun () -> t.registry <- s :: t.registry)
  end;
  s

let enabled t = Atomic.get t.on

let reset t =
  Mutex.protect t.lock (fun () -> t.registry <- []);
  Atomic.set t.next_tag 0;
  Atomic.incr t.epoch

let enable t =
  reset t;
  Atomic.set t.on true

let disable t = Atomic.set t.on false

let take_seq s =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  seq

let record t x =
  if Atomic.get t.on then begin
    let s = stream t in
    s.items <- (take_seq s, x) :: s.items
  end

(* A restart while [f] runs moves the stream to a new epoch (on its
   next use in this domain); the region then belongs to a dropped
   collection and is not recorded. *)
let region t ~close f =
  let s = stream t in
  let epoch = s.epoch and depth = s.depth in
  let seq = take_seq s in
  s.depth <- depth + 1;
  Fun.protect f ~finally:(fun () ->
      if s.epoch = epoch then begin
        s.depth <- depth;
        s.items <- (seq, close ~domain:s.tag ~seq ~depth) :: s.items
      end)

let items t =
  let streams = Mutex.protect t.lock (fun () -> t.registry) in
  List.concat_map
    (fun s -> List.map (fun (seq, x) -> (s.tag, seq, x)) s.items)
    streams
  |> List.sort (fun (d1, s1, _) (d2, s2, _) ->
         match Int.compare d1 d2 with 0 -> Int.compare s1 s2 | c -> c)
  |> List.map (fun (_, _, x) -> x)
