type relation = Before | After | Concurrent | Same

type kind = Must | Prefer

type outcome = Applied | Already | Reversed

type assign_error =
  | Must_violated of int
  | Must_self of int
  | Unknown_event of Event_id.t

type direction = Happens_before | Happens_after

type spec = {
  left : Event_id.t;
  direction : direction;
  kind : kind;
  right : Event_id.t;
}

let constrain ~kind ~direction left right = { left; direction; kind; right }
let must_before a b = constrain ~kind:Must ~direction:Happens_before a b
let must_after a b = constrain ~kind:Must ~direction:Happens_after a b
let prefer_before a b = constrain ~kind:Prefer ~direction:Happens_before a b
let prefer_after a b = constrain ~kind:Prefer ~direction:Happens_after a b

let flip_relation = function
  | Before -> After
  | After -> Before
  | Concurrent -> Concurrent
  | Same -> Same

let relation_equal (a : relation) b = a = b
let kind_equal (a : kind) b = a = b
let outcome_equal (a : outcome) b = a = b

let spec_equal a b =
  Event_id.equal a.left b.left
  && a.direction = b.direction
  && a.kind = b.kind
  && Event_id.equal a.right b.right

let assign_error_equal a b =
  match a, b with
  | Must_violated i, Must_violated j -> i = j
  | Must_self i, Must_self j -> i = j
  | Unknown_event e, Unknown_event f -> Event_id.equal e f
  | (Must_violated _ | Must_self _ | Unknown_event _), _ -> false

let pp_relation ppf = function
  | Before -> Format.pp_print_string ppf "before"
  | After -> Format.pp_print_string ppf "after"
  | Concurrent -> Format.pp_print_string ppf "concurrent"
  | Same -> Format.pp_print_string ppf "same"

let pp_kind ppf = function
  | Must -> Format.pp_print_string ppf "must"
  | Prefer -> Format.pp_print_string ppf "prefer"

let pp_outcome ppf = function
  | Applied -> Format.pp_print_string ppf "applied"
  | Already -> Format.pp_print_string ppf "already"
  | Reversed -> Format.pp_print_string ppf "reversed"

let pp_assign_error ppf = function
  | Must_violated i -> Format.fprintf ppf "must-violated@%d" i
  | Must_self i -> Format.fprintf ppf "must-self@%d" i
  | Unknown_event e -> Format.fprintf ppf "unknown-event:%a" Event_id.pp e

let pp_direction ppf = function
  | Happens_before -> Format.pp_print_string ppf "->"
  | Happens_after -> Format.pp_print_string ppf "<-"

let pp_spec ppf s =
  Format.fprintf ppf "%a %a%a %a" Event_id.pp s.left pp_kind s.kind
    pp_direction s.direction Event_id.pp s.right
