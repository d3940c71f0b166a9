(** A [Domain]-based parallel evaluation pool.

    [map ~jobs f xs] applies [f] to every element of [xs] using up to
    [jobs] domains and returns the results {e in input order}.  Work is
    handed out through an atomic counter (so an expensive element
    doesn't serialize a whole chunk behind it), but each worker writes
    its result into the slot of the element's original index; the merge
    is therefore a pure array read-out and the output is identical for
    every job count — the determinism the explorer's frontier test
    locks in.

    [f] must be safe to run in a fresh domain: the evaluators built on
    this compile their own program text and build their own circuit per
    call, and only read the evaluation memo.  A prepared circuit
    crosses domains between two maps (every domain is joined before
    [map] returns), but nothing mutable is shared while a map runs.

    At most {!max_jobs} domains run, whatever [jobs] asks for: the
    runtime refuses to spawn past its own domain limit. *)

let max_jobs = Domain.recommended_domain_count ()

let map ~(jobs : int) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let jobs = max 1 (min (min jobs max_jobs) n) in
    let out : 'b option array = Array.make n None in
    if jobs = 1 then
      Array.iteri (fun i x -> out.(i) <- Some (f x)) arr
    else begin
      let next = Atomic.make 0 in
      let worker () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            out.(i) <- Some (f arr.(i));
            go ()
          end
        in
        go ()
      in
      (* The coordinator is one of the workers: spawn jobs-1 domains
         and join them, re-raising the first worker exception. *)
      let ds = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join ds
    end;
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None -> assert false (* every index was claimed *))
         out)
  end
