(** Affine address forms: [base + Σ coeff·leaf + konst].

    The base is an array and each leaf a value an analysis cannot see
    through; both are type parameters.  {!Access} expands addresses
    into these forms for μIR construction and race detection alike.

    Forms are kept normalised — leaves sorted, no zero coefficient —
    so two forms denote the same function exactly when they are
    structurally equal. *)

type ('b, 'l) t = {
  base : 'b option;           (** the array the address points into *)
  coeffs : ('l * int) list;   (** sorted by leaf, coefficients ≠ 0 *)
  konst : int;
}

let const (k : int) : ('b, 'l) t = { base = None; coeffs = []; konst = k }

let leaf (l : 'l) : ('b, 'l) t =
  { base = None; coeffs = [ (l, 1) ]; konst = 0 }

let of_base (b : 'b) : ('b, 'l) t = { base = Some b; coeffs = []; konst = 0 }

let is_const (a : ('b, 'l) t) = a.base = None && a.coeffs = []

let normalise cs = List.filter (fun (_, c) -> c <> 0) (List.sort compare cs)

(** [a + b]; [None] when both have a base (two pointers added). *)
let add (a : ('b, 'l) t) (b : ('b, 'l) t) : ('b, 'l) t option =
  match (a.base, b.base) with
  | Some _, Some _ -> None
  | _ ->
    let merged =
      List.fold_left
        (fun acc (l, c) ->
          match List.assoc_opt l acc with
          | None -> (l, c) :: acc
          | Some c0 -> (l, c0 + c) :: List.remove_assoc l acc)
        a.coeffs b.coeffs
    in
    Some
      { base = (if a.base <> None then a.base else b.base);
        coeffs = normalise merged;
        konst = a.konst + b.konst }

(** [k·a]; [None] when [a] has a base and [k ≠ 1] (a scaled pointer). *)
let scale (k : int) (a : ('b, 'l) t) : ('b, 'l) t option =
  if a.base <> None && k <> 1 then None
  else
    Some
      { a with
        coeffs = normalise (List.map (fun (l, c) -> (l, c * k)) a.coeffs);
        konst = a.konst * k }
